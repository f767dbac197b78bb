// A mobility trace: one user's chronologically ordered location reports.
//
// Since the columnar-arena refactor a Trace is structure-of-arrays
// throughout: three columns (x, y, timestamp) instead of a
// std::vector<Event>. A trace either OWNS its columns (the mutable,
// standalone form produced by generators and LPPMs) or is a cheap VIEW
// over one user's span of a shared TraceStore arena (the form Dataset
// hands out for arena-backed — possibly memory-mapped — datasets).
// Views keep the arena alive through a shared_ptr and detach into owned
// columns on the first mutation, so the public API is unchanged in
// shape: Event-valued iteration, operator[], append/insert and
// map_locations all still work. Hot kernels should prefer the column
// spans xs()/ys()/times(), which are contiguous in both modes.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/bbox.h"
#include "trace/event.h"
#include "trace/store.h"

namespace locpriv::trace {

/// Invariant: events are sorted by nondecreasing timestamp. Enforced at
/// every mutation; bulk construction sorts once.
class Trace {
 public:
  /// Random-access iterator materializing Event values from the columns.
  /// Dereference returns Event BY VALUE (there is no row-major Event in
  /// memory); `for (const Event& e : trace)` still works — the reference
  /// binds to the materialized temporary for each iteration.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using reference = Event;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const double* xs, const double* ys, const Timestamp* ts, std::size_t i)
        : xs_(xs), ys_(ys), ts_(ts), i_(i) {}

    [[nodiscard]] Event operator*() const { return {ts_[i_], {xs_[i_], ys_[i_]}}; }
    [[nodiscard]] Event operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() { ++i_; return *this; }
    const_iterator operator++(int) { const_iterator t = *this; ++i_; return t; }
    const_iterator& operator--() { --i_; return *this; }
    const_iterator operator--(int) { const_iterator t = *this; --i_; return t; }
    const_iterator& operator+=(difference_type n) { i_ += static_cast<std::size_t>(n); return *this; }
    const_iterator& operator-=(difference_type n) { i_ -= static_cast<std::size_t>(n); return *this; }
    friend const_iterator operator+(const_iterator it, difference_type n) { return it += n; }
    friend const_iterator operator+(difference_type n, const_iterator it) { return it += n; }
    friend const_iterator operator-(const_iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const_iterator a, const_iterator b) { return a.i_ == b.i_; }
    friend auto operator<=>(const_iterator a, const_iterator b) { return a.i_ <=> b.i_; }

   private:
    const double* xs_ = nullptr;
    const double* ys_ = nullptr;
    const Timestamp* ts_ = nullptr;
    std::size_t i_ = 0;
  };

  Trace() = default;
  explicit Trace(std::string user_id) : user_id_(std::move(user_id)) {}
  /// Bulk constructor; sorts the events by time (stable, preserving the
  /// relative order of simultaneous reports) while splitting them into
  /// columns.
  Trace(std::string user_id, std::vector<Event> events);
  /// Arena view over `store`'s user `user` — O(1), no copies; the store
  /// (and any file mapping behind it) stays alive for the view's
  /// lifetime. Mutating calls detach into owned columns first.
  Trace(std::shared_ptr<const TraceStore> store, std::uint32_t user);

  [[nodiscard]] const std::string& user_id() const {
    return store_ ? store_->user_id(user_) : user_id_;
  }
  void set_user_id(std::string id);

  /// Appends an event; throws std::invalid_argument if it would violate
  /// time ordering (use insert() for out-of-order arrivals).
  void append(Event e);
  /// Inserts keeping chronological order (O(n) worst case).
  void insert(Event e);
  /// Reserves column capacity for `n` events (owned mode; detaches a view).
  void reserve(std::size_t n);

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return store_ ? store_->count_of(user_) : xs_own_.size();
  }
  [[nodiscard]] Event operator[](std::size_t i) const {
    return {times().data()[i], {xs().data()[i], ys().data()[i]}};
  }
  [[nodiscard]] Event front() const { return (*this)[0]; }
  [[nodiscard]] Event back() const { return (*this)[size() - 1]; }

  /// Contiguous column spans — the primary accessors since the columnar
  /// refactor; valid in both owned and arena-view mode.
  [[nodiscard]] std::span<const double> xs() const {
    return store_ ? store_->xs(user_) : std::span<const double>(xs_own_);
  }
  [[nodiscard]] std::span<const double> ys() const {
    return store_ ? store_->ys(user_) : std::span<const double>(ys_own_);
  }
  [[nodiscard]] std::span<const Timestamp> times() const {
    return store_ ? store_->times(user_) : std::span<const Timestamp>(times_own_);
  }

  /// Event-valued range over the columns. Kept for the projection-
  /// template kernels and range-for; prefer the column spans in new
  /// code.
  [[nodiscard]] const Trace& events() const { return *this; }

  [[nodiscard]] const_iterator begin() const {
    return {xs().data(), ys().data(), times().data(), 0};
  }
  [[nodiscard]] const_iterator end() const {
    return {xs().data(), ys().data(), times().data(), size()};
  }

  /// True when this trace is a view into a shared arena (possibly a file
  /// mapping) rather than the owner of its columns.
  [[nodiscard]] bool is_view() const { return store_ != nullptr; }

  /// Total time span covered, seconds (0 for < 2 events).
  [[nodiscard]] Timestamp duration() const;

  /// Tightest bounding box over the locations.
  [[nodiscard]] geo::BoundingBox bounds() const;

  /// The sub-trace with events in [t0, t1] (inclusive).
  [[nodiscard]] Trace between(Timestamp t0, Timestamp t1) const;

  /// Replaces every location through `fn(event) -> Point`, keeping
  /// timestamps — the shape of a location-perturbing LPPM. Writes the
  /// result's columns directly; the Event handed to `fn` is materialized
  /// per index.
  template <typename Fn>
  [[nodiscard]] Trace map_locations(Fn&& fn) const {
    Trace out(user_id());
    const std::span<const double> sx = xs();
    const std::span<const double> sy = ys();
    const std::span<const Timestamp> st = times();
    const std::size_t n = sx.size();
    out.xs_own_.reserve(n);
    out.ys_own_.reserve(n);
    out.times_own_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const geo::Point p = fn(Event{st[i], {sx[i], sy[i]}});
      out.xs_own_.push_back(p.x);
      out.ys_own_.push_back(p.y);
      out.times_own_.push_back(st[i]);
    }
    return out;
  }

  friend bool operator==(const Trace& a, const Trace& b);

 private:
  /// Copies an arena view's id and columns into owned storage so the
  /// trace can be mutated. No-op in owned mode.
  void detach();

  // Owned mode: the user id and three columns live here.
  std::string user_id_;
  std::vector<double> xs_own_;
  std::vector<double> ys_own_;
  std::vector<Timestamp> times_own_;
  // View mode: non-null store + user index; the owned fields are empty.
  std::shared_ptr<const TraceStore> store_;
  std::uint32_t user_ = 0;
};

}  // namespace locpriv::trace
