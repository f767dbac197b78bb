// Aggregated record of every control decision the gateway's adaptive
// sessions made — the audit trail of the control plane.
//
// Two consumers: the determinism suite, which serializes the whole log
// to a canonical byte string and memcmp-compares replays across lane
// counts; and the telemetry report, which summarizes the log as the
// "adaptive" JSON block (decision/action counts, saturations, ε
// trajectory histogram, per-user convergence). Decisions arrive on the
// thread that drives the gateway, one user at a time (the session lock
// serializes each user), so the log only needs a mutex around the map.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.h"
#include "service/adaptive/controller.h"

namespace locpriv::service::adaptive {

class ControlLog {
 public:
  /// Appends one decision. Thread-safe; per-user decisions arrive in
  /// index order (the session manager serializes each user).
  void record(const std::string& user_id, const ControlDecision& decision);

  [[nodiscard]] std::size_t decision_count() const;
  [[nodiscard]] std::size_t user_count() const;

  /// Canonical text dump: one line per decision, users in lexicographic
  /// order, numbers through io::format_double — byte-identical across
  /// replays iff the decisions are. The determinism contract's witness.
  [[nodiscard]] std::string serialize() const;

  /// The telemetry "adaptive" block. See docs/ADAPTIVE.md for the
  /// schema; validated by tools/validate_trace.py --telemetry.
  [[nodiscard]] io::JsonValue to_json() const;

  /// Users whose LAST decision had every controlled axis in band.
  [[nodiscard]] std::size_t users_in_band_final() const;

  /// Copy of the full per-user decision record, for offline analysis
  /// (convergence benches compute re-entry times from it).
  [[nodiscard]] std::map<std::string, std::vector<ControlDecision>> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<ControlDecision>> by_user_;  ///< sorted for canonical dumps
};

}  // namespace locpriv::service::adaptive
