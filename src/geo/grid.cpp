#include "geo/grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locpriv::geo {

Grid::Grid(double cell_size_m, Point origin) : cell_size_(cell_size_m), origin_(origin) {
  if (!(cell_size_m > 0.0)) {
    throw std::invalid_argument("Grid: cell size must be positive");
  }
}

CellIndex Grid::cell_of(Point p) const {
  return {static_cast<std::int64_t>(std::floor((p.x - origin_.x) / cell_size_)),
          static_cast<std::int64_t>(std::floor((p.y - origin_.y) / cell_size_))};
}

Point Grid::cell_center(CellIndex c) const {
  return {origin_.x + (static_cast<double>(c.col) + 0.5) * cell_size_,
          origin_.y + (static_cast<double>(c.row) + 0.5) * cell_size_};
}

BoundingBox Grid::cell_bounds(CellIndex c) const {
  const Point lo{origin_.x + static_cast<double>(c.col) * cell_size_,
                 origin_.y + static_cast<double>(c.row) * cell_size_};
  return {lo, {lo.x + cell_size_, lo.y + cell_size_}};
}

// ---------------------------------------------------------------- CellSet

namespace {

// Whether both axes lie in [-2^31, 2^31), where cell_key is collision-free.
bool in_key_range(CellIndex c) {
  return c.col == static_cast<std::int32_t>(c.col) && c.row == static_cast<std::int32_t>(c.row);
}

}  // namespace

bool CellSet::insert(CellIndex c) {
  if (!in_key_range(c)) throw std::out_of_range("CellSet::insert: cell axis outside [-2^31, 2^31)");
  const std::uint64_t key = cell_key(c);
  if (key == kFree) {
    if (has_sentinel_cell_) return false;
    has_sentinel_cell_ = true;
    ++size_;
    return true;
  }
  if (slots_.empty()) reserve(0);
  const std::size_t slot = slot_of(key);
  if (slots_[slot] == key) return false;
  slots_[slot] = key;
  ++size_;
  if (size_ * 2 >= slots_.size()) rehash(slots_.size() * 2);  // keep load under 1/2
  return true;
}

bool CellSet::contains(CellIndex c) const {
  return in_key_range(c) && contains_key(cell_key(c));
}

bool CellSet::contains_key(std::uint64_t key) const {
  if (key == kFree) return has_sentinel_cell_;
  return !slots_.empty() && slots_[slot_of(key)] == key;
}

std::size_t CellSet::slot_of(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(CellIndexHash::mix(key)) & mask;
  while (slots_[slot] != kFree && slots_[slot] != key) slot = (slot + 1) & mask;
  return slot;
}

void CellSet::reserve(std::size_t cells) {
  std::size_t capacity = 64;
  while (capacity <= cells * 2) capacity *= 2;
  if (capacity > slots_.size()) rehash(capacity);
}

void CellSet::rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old(capacity, kFree);
  old.swap(slots_);
  for (const std::uint64_t key : old) {
    if (key != kFree) slots_[slot_of(key)] = key;
  }
}

bool operator==(const CellSet& a, const CellSet& b) {
  if (a.size_ != b.size_ || a.has_sentinel_cell_ != b.has_sentinel_cell_) return false;
  for (const std::uint64_t key : a.slots_) {
    if (key != CellSet::kFree && !b.contains_key(key)) return false;
  }
  return true;
}

std::size_t intersection_size(const CellSet& a, const CellSet& b) {
  // Scan the shorter slot array, probe the other.
  const CellSet& scan = a.slots_.size() <= b.slots_.size() ? a : b;
  const CellSet& probe = &scan == &a ? b : a;
  std::size_t n = a.has_sentinel_cell_ && b.has_sentinel_cell_ ? 1 : 0;
  for (const std::uint64_t key : scan.slots_) {
    if (key != CellSet::kFree && probe.contains_key(key)) ++n;
  }
  return n;
}

// ------------------------------------------------------------------- Grid

namespace {

// Axis range of a CellSet cell, [-2^31, 2^31).
constexpr double kAxisLimit = 2147483648.0;

// floor of the quotient as a cell axis: int64 truncation, adjusted down
// by one when it overshoots a negative non-integer — pure arithmetic
// instead of a libm floor call, and the same integer std::floor
// produces. NaN, ±inf and quotients outside [-2^31, 2^31) throw instead
// of reaching the cast, where they would be undefined behaviour.
std::int64_t floor_to_cell(double q) {
  if (!(q >= -kAxisLimit && q < kAxisLimit)) {
    throw std::out_of_range("Grid::covered_cells: cell axis NaN or outside [-2^31, 2^31)");
  }
  const auto t = static_cast<std::int64_t>(q);
  return t - (static_cast<double>(t) > q ? 1 : 0);
}

/// Adds the cells of `n` points read through `xy(i)` to `cells`. Trace
/// columns are time ordered, so consecutive samples mostly share a cell
/// and the set is only probed when the cell changes.
template <typename XY>
void rasterize(std::size_t n, XY xy, Point origin, double cell_size, CellSet& cells) {
  CellIndex prev{};
  bool have_prev = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point p = xy(i);
    const CellIndex c{floor_to_cell((p.x - origin.x) / cell_size),
                      floor_to_cell((p.y - origin.y) / cell_size)};
    if (have_prev && c == prev) continue;
    cells.insert(c);
    prev = c;
    have_prev = true;
  }
}

/// An empty set for covered_cells to return for `n` points, with room
/// for a cell per four of them. Its callers cache that set for a whole
/// sweep (the actual side's coverage artifact). Reserving a cell per
/// point made the offline configure benchmark about 2 % faster on a
/// 4-vCPU Xeon VM but raised its peak memory by about 13 %, measured
/// while protected sets were cached too; a set that is scored and
/// dropped at once is reserved for every point by its caller instead,
/// through add_covered_cells.
CellSet returned_set(std::size_t n) {
  CellSet cells;
  cells.reserve(std::min<std::size_t>(n / 4, 4095));
  return cells;
}

}  // namespace

CellSet Grid::covered_cells(std::span<const Point> pts) const {
  CellSet cells = returned_set(pts.size());
  rasterize(pts.size(), [&](std::size_t i) { return pts[i]; }, origin_, cell_size_, cells);
  return cells;
}

CellSet Grid::covered_cells(std::span<const double> xs, std::span<const double> ys) const {
  CellSet cells = returned_set(xs.size());
  add_covered_cells(xs, ys, cells);
  return cells;
}

void Grid::add_covered_cells(std::span<const double> xs, std::span<const double> ys,
                             CellSet& out) const {
  if (xs.size() != ys.size()) throw std::invalid_argument("covered_cells: column length mismatch");
  rasterize(xs.size(), [&](std::size_t i) { return Point{xs[i], ys[i]}; }, origin_, cell_size_,
            out);
}

GridExtent::GridExtent(const BoundingBox& box, double cell_size_m)
    : box_(box), cell_size_(cell_size_m) {
  if (box_.empty()) throw std::invalid_argument("GridExtent: empty bounding box");
  if (!(cell_size_m > 0.0)) throw std::invalid_argument("GridExtent: cell size must be positive");
  // A degenerate axis (zero width/height) still rasterizes to one cell.
  cols_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(box_.width() / cell_size_)));
  rows_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(box_.height() / cell_size_)));
}

CellIndex GridExtent::cell_of(Point p) const {
  if (!box_.contains(p)) throw std::out_of_range("GridExtent::cell_of: point outside the box");
  auto clamp_axis = [this](double offset, std::size_t n) {
    const auto raw = static_cast<std::int64_t>(std::floor(offset / cell_size_));
    // Closed upper edge: the box max (and any last-ulp wobble below it)
    // belongs to the last cell, never one past it.
    const auto last = static_cast<std::int64_t>(n) - 1;
    return std::min(std::max<std::int64_t>(raw, 0), last);
  };
  return {clamp_axis(p.x - box_.min().x, cols_), clamp_axis(p.y - box_.min().y, rows_)};
}

std::size_t GridExtent::linear_index(Point p) const {
  const CellIndex c = cell_of(p);
  return static_cast<std::size_t>(c.row) * cols_ + static_cast<std::size_t>(c.col);
}

Point GridExtent::cell_center(CellIndex c) const {
  if (c.col < 0 || c.row < 0 || static_cast<std::size_t>(c.col) >= cols_ ||
      static_cast<std::size_t>(c.row) >= rows_) {
    throw std::out_of_range("GridExtent::cell_center: cell outside the extent");
  }
  return {box_.min().x + (static_cast<double>(c.col) + 0.5) * cell_size_,
          box_.min().y + (static_cast<double>(c.row) + 0.5) * cell_size_};
}

double jaccard(const CellSet& a, const CellSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const std::size_t inter = intersection_size(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double f1_score(const CellSet& actual, const CellSet& predicted) {
  if (actual.empty() && predicted.empty()) return 1.0;
  if (actual.empty() || predicted.empty()) return 0.0;
  const double inter = static_cast<double>(intersection_size(actual, predicted));
  const double precision = inter / static_cast<double>(predicted.size());
  const double recall = inter / static_cast<double>(actual.size());
  if (precision + recall == 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace locpriv::geo
