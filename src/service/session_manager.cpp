#include "service/session_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service/telemetry.h"

namespace locpriv::service {

namespace {

constexpr unsigned kMinIndexBits = 4;
/// Record ids are 32-bit and index entries store id + 1, so the largest
/// id is 2^32 - 2 and kNil (2^32 - 1) stays free.
constexpr std::size_t kMaxRecords = 0xFFFFFFFEULL;

std::uint64_t make_entry(std::uint32_t tag, std::uint32_t id) {
  return (static_cast<std::uint64_t>(tag) << 32) | (static_cast<std::uint64_t>(id) + 1);
}

}  // namespace

SessionManager::SessionManager(SessionManagerConfig cfg, SessionFactory factory,
                               Telemetry* telemetry)
    : cfg_(cfg),
      telemetry_(telemetry),
      factory_(std::move(factory)),
      index_(std::size_t{1} << kMinIndexBits, 0),
      shift_(64 - kMinIndexBits) {
  static_assert(sizeof(Record) == 64, "a session record is one cache line");
  if (!factory_) throw std::invalid_argument("SessionManager: factory must be callable");
}

void SessionManager::set_factory(SessionFactory factory) {
  if (!factory) throw std::invalid_argument("SessionManager: factory must be callable");
  std::lock_guard lock(mutex_);
  factory_ = std::move(factory);
}

std::uint32_t SessionManager::find(std::string_view user, std::uint32_t tag) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = home(tag);; s = (s + 1) & mask) {
    const std::uint64_t entry = index_[s];
    if (entry == 0) return kNil;
    if (static_cast<std::uint32_t>(entry >> 32) != tag) continue;
    const auto id = static_cast<std::uint32_t>(entry - 1);
    if (records_[id].user == user) return id;
  }
}

void SessionManager::place(std::uint64_t entry) {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home(static_cast<std::uint32_t>(entry >> 32));
  while (index_[s] != 0) s = (s + 1) & mask;
  index_[s] = entry;
}

void SessionManager::grow_index() {
  std::vector<std::uint64_t> old =
      std::exchange(index_, std::vector<std::uint64_t>(2 * index_.size(), 0));
  --shift_;
  for (const std::uint64_t entry : old) {
    if (entry != 0) place(entry);
  }
}

void SessionManager::unindex(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  const std::uint64_t entry = make_entry(records_[id].tag, id);
  std::size_t hole = home(records_[id].tag);
  while (index_[hole] != entry) hole = (hole + 1) & mask;
  // Backward shift: pull each later entry of the run into the hole
  // unless that would move it before its home slot.
  for (std::size_t s = (hole + 1) & mask; index_[s] != 0; s = (s + 1) & mask) {
    const std::size_t from_home = (s - home(static_cast<std::uint32_t>(index_[s] >> 32))) & mask;
    if (from_home >= ((s - hole) & mask)) {
      index_[hole] = index_[s];
      hole = s;
    }
  }
  index_[hole] = 0;
}

void SessionManager::lru_unlink(std::uint32_t id) {
  const Record& r = records_[id];
  (r.prev != kNil ? records_[r.prev].next : head_) = r.next;
  (r.next != kNil ? records_[r.next].prev : tail_) = r.prev;
}

void SessionManager::lru_push_front(std::uint32_t id) {
  Record& r = records_[id];
  r.prev = kNil;
  r.next = head_;
  (head_ != kNil ? records_[head_].prev : tail_) = id;
  head_ = id;
}

std::uint32_t SessionManager::insert(const std::string& user, std::uint32_t tag,
                                     std::unique_ptr<lppm::StreamSession> session,
                                     trace::Timestamp now) {
  if (2 * (live_ + 1) > index_.size()) grow_index();
  if (free_ == kNil) {
    if (records_.size() >= kMaxRecords) {
      throw std::length_error("SessionManager: more than 2^32 - 2 live sessions");
    }
    records_.emplace_back();
    free_ = static_cast<std::uint32_t>(records_.size() - 1);
  }
  const std::uint32_t id = free_;
  Record& r = records_[id];
  r.user = user;  // the last step that can throw: the record is still free
  free_ = r.next;
  r.tag = tag;
  r.last_active = now;
  r.session = std::move(session);
  lru_push_front(id);
  place(make_entry(tag, id));
  ++live_;
  return id;
}

void SessionManager::evict(std::uint32_t id) {
  unindex(id);
  lru_unlink(id);
  Record& r = records_[id];
  r.session.reset();
  r.next = free_;
  free_ = id;
  --live_;
}

void SessionManager::evict_due(trace::Timestamp now, std::size_t keep) {
  if (cfg_.idle_timeout_s > 0) {
    // Every stored and sanitized time is >= 0, so the difference cannot
    // overflow; last_active + idle_timeout_s can, on a client clock near
    // the end of time.
    while (tail_ != kNil && now - records_[tail_].last_active >= cfg_.idle_timeout_s) {
      evict(tail_);
      if (telemetry_ != nullptr) telemetry_->record_session_evicted_idle();
    }
  }
  if (cfg_.max_sessions > 0) {
    while (live_ > keep) {
      evict(tail_);
      if (telemetry_ != nullptr) telemetry_->record_session_evicted_lru();
    }
  }
}

SessionManager::LockedSession SessionManager::acquire(const std::string& user_id,
                                                      trace::Timestamp now) {
  std::unique_lock lock(mutex_);
  const auto tag = static_cast<std::uint32_t>(stable_hash64(user_id));
  std::uint32_t id = find(user_id, tag);
  if (id == kNil) {
    // The factory runs first, so one that throws leaves the table as it
    // was. Evicting before inserting picks the victims inserting first
    // would: the new user would sit at the LRU head, never idle, never
    // the least recent. Its history starts at 0, so backward clocks
    // clamp there.
    std::unique_ptr<lppm::StreamSession> session = factory_(user_id);
    const trace::Timestamp mono = std::max<trace::Timestamp>(now, 0);
    evict_due(mono, cfg_.max_sessions - 1);
    id = insert(user_id, tag, std::move(session), mono);
    if (telemetry_ != nullptr) telemetry_->record_session_created();
    return LockedSession(std::move(lock), records_[id].session.get(), mono, mono != now);
  }
  if (id != head_) {
    lru_unlink(id);
    lru_push_front(id);
  }
  // Sanitize backwards clocks against the user's own history (see the
  // acquire() contract in the header).
  Record& r = records_[id];
  const trace::Timestamp mono = std::max(now, r.last_active);
  r.last_active = mono;
  lppm::StreamSession* session = r.session.get();
  // The current user sits at the LRU head, so eviction (which eats from
  // the tail) can never destroy the session being handed out.
  evict_due(mono, cfg_.max_sessions);
  return LockedSession(std::move(lock), session, mono, mono != now);
}

std::size_t SessionManager::session_count() const {
  std::lock_guard lock(mutex_);
  return live_;
}

}  // namespace locpriv::service
