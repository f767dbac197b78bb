// Post-hoc privacy/utility audit of a streaming session.
//
// The gateway's sink feeds every ProtectedReport to a StreamAuditor;
// after the replay the auditor reassembles per-user (actual, protected)
// traces from the delivered pairs and evaluates any set of offline
// metrics through one shared EvalContext — so the staypoint/POI/raster
// derivations are computed once no matter how many metrics run.
//
// Arena-backed mode: when the replayed stream comes out of a TraceStore
// (the serving shards replay a mapped .lpds dataset), the auditor does
// not copy original events into its history at all — it looks each one
// up in the store's columnar arena and keeps a size-4 column index
// instead of a 24-byte event. Originals then materialize straight from
// the store's (mmap-shared) pages at evaluate() time, so N shards
// auditing the same dataset share one physical copy of the actual
// trace data. Reports whose original is not in the store (synthetic
// probes, clock-skewed events) fall back to a per-pair copy.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/metric.h"
#include "service/gateway.h"
#include "trace/store.h"

namespace locpriv::service {

/// Retention policy for a windowed auditor. Either bound may be zero
/// (= unbounded on that dimension); the default keeps everything, which
/// is the classic full-stream post-hoc audit. Bounds apply per user:
/// `max_pairs` keeps the last K delivered pairs, `max_age_s` keeps
/// pairs whose ORIGINAL (virtual) timestamp is within T seconds of the
/// user's newest recorded pair. Original time, not protected time: the
/// protected clock may be skewed by the mechanism.
struct AuditWindow {
  std::size_t max_pairs = 0;       ///< 0 = unbounded
  trace::Timestamp max_age_s = 0;  ///< 0 = unbounded
  [[nodiscard]] bool bounded() const { return max_pairs > 0 || max_age_s > 0; }
};

class StreamAuditor {
 public:
  struct MetricValue {
    std::string name;
    bool privacy = false;  ///< direction classified as a privacy axis
    double value = 0.0;
  };

  /// How the recorded history is stored — the page-sharing evidence for
  /// arena-backed auditors.
  struct StorageStats {
    std::size_t borrowed = 0;  ///< originals held as arena indices
    std::size_t copied = 0;    ///< originals copied into the auditor
  };

  /// Full-stream auditor: keeps every delivered pair.
  StreamAuditor() = default;
  /// Windowed auditor: evicts incrementally on record, so memory and
  /// evaluation cost are O(window), not O(stream).
  explicit StreamAuditor(AuditWindow window) : window_(window) {}
  /// Arena-backed auditor: originals matching an event in `store` are
  /// borrowed (see file comment), others copied. `store` must outlive
  /// the auditor; a mapped store keeps its mapping alive through the
  /// shared_ptr.
  explicit StreamAuditor(std::shared_ptr<const trace::TraceStore> store, AuditWindow window = {});

  /// Records one sink event. Thread-safe, though the gateway calls its
  /// sink from one thread at a time. Reports without a protected event (suppressed,
  /// rejected) carry no deliverable location and are skipped.
  void record(const ProtectedReport& report);

  /// Delivered pairs currently retained (post-eviction in windowed
  /// mode; everything recorded in full-stream mode).
  [[nodiscard]] std::size_t recorded() const;

  /// Borrowed/copied split of the retained pairs.
  [[nodiscard]] StorageStats storage() const;

  [[nodiscard]] const AuditWindow& window() const { return window_; }
  [[nodiscard]] bool arena_backed() const { return store_ != nullptr; }

  /// Evaluates every metric over the recorded pairs. Users are ordered
  /// by first appearance, events by per-user sequence number (the
  /// Trace constructor re-sorts by time, tolerating skewed protected
  /// clocks). Throws std::runtime_error when nothing was delivered.
  [[nodiscard]] std::vector<MetricValue> evaluate(
      const std::vector<std::shared_ptr<const metrics::Metric>>& metric_list) const;

 private:
  struct Pair {
    std::uint64_t seq = 0;
    trace::Event protected_event;
    /// >= 0: global arena column index of the original (borrowed).
    /// < 0: ~(owned index) into the user's owned-original FIFO.
    std::int64_t original_ref = 0;
  };

  struct UserHistory {
    std::deque<Pair> pairs;
    /// Copied originals, FIFO alongside `pairs`; `owned_base` is the
    /// global owned-index of owned.front(), so eviction (front-only)
    /// keeps references valid without renumbering.
    std::deque<trace::Event> owned;
    std::uint64_t owned_base = 0;
    /// User's index in the arena store; -1 = not resolved yet, -2 = the
    /// store has no such user (everything falls back to copies).
    std::ptrdiff_t store_user = -1;
  };

  [[nodiscard]] trace::Event original_of(const UserHistory& h, const Pair& p) const;
  /// Arena column index of `event` within store user `u`, or -1.
  [[nodiscard]] std::int64_t find_in_arena(std::size_t u, const trace::Event& event) const;
  void evict(UserHistory& h) const;

  AuditWindow window_;
  std::shared_ptr<const trace::TraceStore> store_;  ///< null = copy-only
  std::unordered_map<std::string, std::size_t> store_users_;
  mutable std::mutex mutex_;
  std::vector<std::string> user_order_;
  std::unordered_map<std::string, UserHistory> by_user_;
};

}  // namespace locpriv::service
