// Uniform grid over a planar extent — the "city block" raster.
//
// The paper's utility objective is phrased at city-block granularity:
// protected locations should still fall in the block of the actual
// location. The Grid rasterizes planar points into square cells of a
// configurable size (default 115 m ≈ a San Francisco block) and supports
// set operations over covered cells (a flat CellSet), which the
// area-coverage utility metric is built on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"

namespace locpriv::geo {

/// Integer cell coordinates of a grid cell.
struct CellIndex {
  std::int64_t col = 0;
  std::int64_t row = 0;
  friend constexpr bool operator==(CellIndex, CellIndex) = default;
};

/// The 64-bit key of a cell: the low 32 bits of each axis, column high.
/// Collision-free for col and row in [-2^31, 2^31), the range CellSet
/// and Grid's rasterizers enforce.
[[nodiscard]] constexpr std::uint64_t cell_key(CellIndex c) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.col)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.row));
}

/// Hash of a CellIndex: the splitmix64 finalizer over its cell_key, cheap
/// and well distributed.
struct CellIndexHash {
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t key) noexcept {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  [[nodiscard]] std::size_t operator()(CellIndex c) const noexcept {
    return static_cast<std::size_t>(mix(cell_key(c)));
  }
};

/// A set of grid cells, stored as one flat open-addressed table of
/// cell_keys: linear probing, power-of-two capacity, load factor kept
/// under 1/2. Membership, equality and intersection each run over the
/// one contiguous slot array, with no per-cell allocation. Holds only
/// cells whose axes lie in [-2^31, 2^31), where the key is collision-free.
class CellSet {
 public:
  /// Adds `c`; true when it was not already a member. Throws
  /// std::out_of_range when an axis lies outside [-2^31, 2^31).
  bool insert(CellIndex c);

  [[nodiscard]] bool contains(CellIndex c) const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Makes room for `cells` members without regrowth.
  void reserve(std::size_t cells);

  /// Same cells, whatever the insertion order or table capacity.
  friend bool operator==(const CellSet& a, const CellSet& b);
  friend std::size_t intersection_size(const CellSet& a, const CellSet& b);

 private:
  // cell_key(-1, -1): the free-slot marker, so that one cell is tracked
  // by `has_sentinel_cell_` instead of a slot.
  static constexpr std::uint64_t kFree = ~0ULL;

  [[nodiscard]] bool contains_key(std::uint64_t key) const;
  // The slot holding `key`, or the free slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const;
  void rehash(std::size_t capacity);

  std::vector<std::uint64_t> slots_;  // kFree or a member's key
  std::size_t size_ = 0;
  bool has_sentinel_cell_ = false;
};

/// Infinite uniform grid of square cells anchored at a configurable origin.
class Grid {
 public:
  /// `cell_size_m` must be strictly positive; throws std::invalid_argument
  /// otherwise. `origin` is the corner of cell (0, 0).
  explicit Grid(double cell_size_m, Point origin = {0.0, 0.0});

  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] Point origin() const { return origin_; }

  /// Cell containing `p`. Points exactly on a boundary belong to the cell
  /// to their upper-right (floor semantics).
  [[nodiscard]] CellIndex cell_of(Point p) const;

  /// Center point of a cell.
  [[nodiscard]] Point cell_center(CellIndex c) const;

  /// Bounding box of a cell.
  [[nodiscard]] BoundingBox cell_bounds(CellIndex c) const;

  /// Snaps `p` to the center of its cell — the core of grid cloaking.
  [[nodiscard]] Point snap(Point p) const { return cell_center(cell_of(p)); }

  /// The set of distinct cells covered by `pts`. Unlike cell_of, which
  /// leaves out-of-range input undefined, throws std::out_of_range when a
  /// point's cell axis is NaN or outside [-2^31, 2^31).
  [[nodiscard]] CellSet covered_cells(std::span<const Point> pts) const;

  /// Columnar form over contiguous coordinate columns (a trace's
  /// xs()/ys() spans); identical result and errors to the span overload.
  /// Time-ordered columns make it fast: consecutive same-cell samples
  /// skip the probe, and the floor is computed arithmetically. Requires
  /// xs.size() == ys.size() (std::invalid_argument otherwise).
  [[nodiscard]] CellSet covered_cells(std::span<const double> xs, std::span<const double> ys) const;

  /// Adds the cells of the columns to `out`: the columnar covered_cells
  /// loop and errors, into a set the caller sizes. A throw leaves `out`
  /// holding the cells added before the bad point.
  void add_covered_cells(std::span<const double> xs, std::span<const double> ys,
                         CellSet& out) const;

 private:
  double cell_size_;
  Point origin_;
};

/// A bounded rasterization of a bounding box: cols() × rows() cells of
/// `cell_size_m` anchored at the box's south-west corner.
///
/// Unlike the infinite Grid (pure floor semantics), the extent treats
/// the box as CLOSED on its north/east boundary: a point exactly on the
/// box's max edge lands in the LAST row/column — mirroring the
/// upper-edge clamp in stats::Histogram::add — instead of flooring one
/// past the end and indexing out of range. The clamp also absorbs the
/// one-ulp floating-point wobble of (p - min) / cell_size for points a
/// hair inside the edge.
class GridExtent {
 public:
  /// Requires a non-empty box and cell_size_m > 0; throws
  /// std::invalid_argument otherwise.
  GridExtent(const BoundingBox& box, double cell_size_m);

  [[nodiscard]] const BoundingBox& box() const { return box_; }
  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cell_count() const { return cols_ * rows_; }

  /// Closed-box containment (same contract as BoundingBox::contains).
  [[nodiscard]] bool contains(Point p) const { return box_.contains(p); }

  /// Cell containing `p`, with the closed north/east boundary clamped
  /// into the last row/column. Requires contains(p); throws
  /// std::out_of_range otherwise.
  [[nodiscard]] CellIndex cell_of(Point p) const;

  /// Row-major linear index of cell_of(p), always < cell_count().
  [[nodiscard]] std::size_t linear_index(Point p) const;

  /// Center of a cell; requires col < cols() and row < rows()
  /// (std::out_of_range otherwise).
  [[nodiscard]] Point cell_center(CellIndex c) const;

 private:
  BoundingBox box_;
  double cell_size_;
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
};

/// |a ∩ b|.
[[nodiscard]] std::size_t intersection_size(const CellSet& a, const CellSet& b);

/// Jaccard similarity |a ∩ b| / |a ∪ b|; 1.0 when both sets are empty
/// (two empty coverages are identical).
[[nodiscard]] double jaccard(const CellSet& a, const CellSet& b);

/// F1 score of `predicted` against `actual` cell sets; 1.0 when both are
/// empty, 0.0 when exactly one is.
[[nodiscard]] double f1_score(const CellSet& actual, const CellSet& predicted);

}  // namespace locpriv::geo
