#include "trace/dataset.h"

#include <stdexcept>

namespace locpriv::trace {

Dataset::Dataset(std::shared_ptr<const TraceStore> store) : store_(std::move(store)) {
  if (store_ == nullptr) throw std::invalid_argument("Dataset: null store");
  // The store constructor already enforced unique user ids.
  traces_.reserve(store_->user_count());
  for (std::size_t u = 0; u < store_->user_count(); ++u) {
    traces_.emplace_back(Trace(store_, static_cast<std::uint32_t>(u)));
  }
}

void Dataset::add(Trace t) {
  for (std::size_t i = ids_.size(); i < traces_.size(); ++i) ids_.insert(traces_[i].user_id());
  if (ids_.contains(t.user_id())) {
    throw std::invalid_argument("Dataset::add: duplicate user id '" + t.user_id() + "'");
  }
  traces_.push_back(std::move(t));
  store_.reset();  // the arena no longer spans every trace
  ids_.insert(traces_.back().user_id());
}

const Trace* Dataset::find(const std::string& user_id) const {
  for (const Trace& t : traces_) {
    if (t.user_id() == user_id) return &t;
  }
  return nullptr;
}

std::size_t Dataset::total_events() const {
  if (store_ != nullptr) return store_->event_count();
  std::size_t n = 0;
  for (const Trace& t : traces_) n += t.size();
  return n;
}

geo::BoundingBox Dataset::bounds() const {
  geo::BoundingBox box;
  for (const Trace& t : traces_) box.extend(t.bounds());
  return box;
}

std::shared_ptr<const TraceStore> Dataset::to_store() const {
  if (store_ != nullptr) return store_;
  return TraceStore::from_dataset(*this);
}

}  // namespace locpriv::trace
