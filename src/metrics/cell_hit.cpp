#include "metrics/cell_hit.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "geo/grid.h"
#include "metrics/eval_context.h"

namespace locpriv::metrics {

CellHitRatio::CellHitRatio(double cell_size_m) : cell_size_m_(cell_size_m) {
  if (!(cell_size_m > 0.0)) throw std::invalid_argument("CellHitRatio: cell size must be > 0");
}

const std::string& CellHitRatio::name() const {
  static const std::string kName = "cell-hit-ratio";
  return kName;
}

double CellHitRatio::evaluate_trace(const EvalContext& ctx, std::size_t user) const {
  const trace::Trace& actual = ctx.trace(Side::kActual, user);
  const trace::Trace& protected_trace = ctx.trace(Side::kProtected, user);
  if (actual.empty()) return 0.0;
  if (protected_trace.empty()) return 0.0;
  const geo::Grid grid(cell_size_m_);

  // The actual side's per-report cell indices are invariant across
  // points/trials, so they live in the sweep-wide cache.
  const std::uint64_t params = ParamHash().add(cell_size_m_).digest();
  const auto actual_cells =
      ctx.artifact<std::vector<geo::CellIndex>>(Side::kActual, user, "cell-indices", params, [&] {
        std::vector<geo::CellIndex> cells;
        cells.reserve(actual.size());
        for (const trace::Event& e : actual) cells.push_back(grid.cell_of(e.location));
        return cells;
      });

  std::size_t hits = 0;
  if (actual.size() == protected_trace.size()) {
    for (std::size_t i = 0; i < actual.size(); ++i) {
      if ((*actual_cells)[i] == grid.cell_of(protected_trace[i].location)) ++hits;
    }
  } else {
    // Pair each actual report with the protected report nearest in time
    // (both traces are chronologically sorted; two-pointer scan).
    std::size_t j = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      const trace::Timestamp t = actual[i].time;
      while (j + 1 < protected_trace.size() &&
             std::llabs(protected_trace[j + 1].time - t) <= std::llabs(protected_trace[j].time - t)) {
        ++j;
      }
      if ((*actual_cells)[i] == grid.cell_of(protected_trace[j].location)) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(actual.size());
}

}  // namespace locpriv::metrics
