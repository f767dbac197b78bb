// A dataset: many users' traces, the unit the framework protects and
// evaluates.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "geo/bbox.h"
#include "trace/store.h"
#include "trace/trace.h"

namespace locpriv::trace {

/// Invariant: user ids are unique. Traces keep insertion order so that
/// parallel evaluation can index users stably.
///
/// A dataset is either row-built (traces added one by one, each owning
/// its columns) or arena-backed: constructed over a shared TraceStore —
/// possibly a read-only file mapping — in which case every trace is a
/// zero-copy view into the arena's contiguous columns. Both forms
/// expose the same API and produce bit-identical evaluation results.
class Dataset {
 public:
  Dataset() = default;

  /// Arena-backed dataset: one view trace per store user, in store
  /// order. O(users); no event data is copied. Throws
  /// std::invalid_argument on a null store.
  explicit Dataset(std::shared_ptr<const TraceStore> store);

  /// Adds a trace; throws std::invalid_argument on duplicate user id.
  /// O(1) expected: the check looks the id up in an index of every id
  /// added so far.
  void add(Trace t);

  [[nodiscard]] bool empty() const { return traces_.empty(); }
  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  [[nodiscard]] const Trace& operator[](std::size_t i) const { return traces_[i]; }

  [[nodiscard]] auto begin() const { return traces_.begin(); }
  [[nodiscard]] auto end() const { return traces_.end(); }

  /// Finds a trace by user id (nullptr when absent). A linear scan: the
  /// id index belongs to add(), so that concurrent readers of a const
  /// dataset share no lazily built state.
  [[nodiscard]] const Trace* find(const std::string& user_id) const;

  /// Total number of events across all traces.
  [[nodiscard]] std::size_t total_events() const;

  /// Bounding box over every location in the dataset.
  [[nodiscard]] geo::BoundingBox bounds() const;

  /// The shared arena when this dataset is arena-backed and no traces
  /// were added afterwards; null for row-built datasets.
  [[nodiscard]] const std::shared_ptr<const TraceStore>& store() const { return store_; }
  /// True when every trace is a view into one shared arena.
  [[nodiscard]] bool columnar() const { return store_ != nullptr; }

  /// Builds (or returns) a columnar arena covering this dataset: the
  /// existing store when arena-backed, otherwise a fresh copy of every
  /// trace into contiguous columns. The dataset itself is unchanged.
  [[nodiscard]] std::shared_ptr<const TraceStore> to_store() const;

  /// Applies `fn(const Trace&) -> Trace` to every trace — the shape of
  /// protecting a whole dataset with an LPPM.
  template <typename Fn>
  [[nodiscard]] Dataset map(Fn&& fn) const {
    Dataset out;
    for (const Trace& t : traces_) out.add(fn(t));
    return out;
  }

 private:
  std::vector<Trace> traces_;
  // The ids of traces_[0, ids_.size()). The arena constructor copies no
  // ids, so add() first indexes the traces that are not yet in it.
  std::unordered_set<std::string> ids_;
  // Set when constructed over an arena; cleared by add() because the
  // arena then no longer covers the whole dataset.
  std::shared_ptr<const TraceStore> store_;
};

}  // namespace locpriv::trace
