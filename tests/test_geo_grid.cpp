#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geo/bbox.h"
#include "geo/grid.h"
#include "stats/rng.h"

namespace locpriv::geo {
namespace {

// The oracle every CellSet is checked against: an ordered set of
// (col, row) pairs built from Grid::cell_of.
using CellOracle = std::set<std::pair<std::int64_t, std::int64_t>>;

CellOracle oracle_cells(const Grid& g, const std::vector<Point>& pts) {
  CellOracle cells;
  for (const Point p : pts) {
    const CellIndex c = g.cell_of(p);
    cells.insert({c.col, c.row});
  }
  return cells;
}

std::size_t oracle_intersection(const CellOracle& a, const CellOracle& b) {
  std::vector<std::pair<std::int64_t, std::int64_t>> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(common));
  return common.size();
}

// Size, every member, and every member's four neighbours agree with the
// oracle (a neighbour is a member exactly when the oracle holds it).
void expect_same_cells(const CellSet& cells, const CellOracle& oracle) {
  EXPECT_EQ(cells.size(), oracle.size());
  EXPECT_EQ(cells.empty(), oracle.empty());
  for (const auto& [col, row] : oracle) {
    EXPECT_TRUE(cells.contains({col, row})) << col << "," << row;
    for (const auto& [dc, dr] : {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
      EXPECT_EQ(cells.contains({col + dc, row + dr}), oracle.contains({col + dc, row + dr}))
          << col + dc << "," << row + dr;
    }
  }
}

TEST(BoundingBox, EmptyByDefault) {
  const BoundingBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_DOUBLE_EQ(box.area(), 0.0);
  EXPECT_DOUBLE_EQ(box.diagonal(), 0.0);
  EXPECT_FALSE(box.contains({0, 0}));
}

TEST(BoundingBox, ExtendGrowsToCoverPoints) {
  BoundingBox box;
  box.extend({1, 2});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({1, 2}));
  box.extend({-3, 5});
  EXPECT_TRUE(box.contains({0, 3}));
  EXPECT_DOUBLE_EQ(box.width(), 4.0);
  EXPECT_DOUBLE_EQ(box.height(), 3.0);
}

TEST(BoundingBox, CornerOrderIrrelevant) {
  const BoundingBox a({0, 0}, {2, 3});
  const BoundingBox b({2, 3}, {0, 0});
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(BoundingBox, IntersectsAndDisjoint) {
  const BoundingBox a({0, 0}, {10, 10});
  const BoundingBox b({5, 5}, {15, 15});
  const BoundingBox c({20, 20}, {30, 30});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(a.intersects(BoundingBox{}));
}

TEST(BoundingBox, InflatedAddsMargin) {
  const BoundingBox a({0, 0}, {2, 2});
  const BoundingBox big = a.inflated(1.0);
  EXPECT_TRUE(big.contains({-0.5, -0.5}));
  EXPECT_DOUBLE_EQ(big.width(), 4.0);
  EXPECT_THROW((void)BoundingBox{}.inflated(1.0), std::logic_error);
}

TEST(BoundingBox, FromSpan) {
  const std::vector<Point> pts{{0, 0}, {5, -2}, {3, 7}};
  const BoundingBox box = bounding_box(pts);
  EXPECT_DOUBLE_EQ(box.min().x, 0.0);
  EXPECT_DOUBLE_EQ(box.min().y, -2.0);
  EXPECT_DOUBLE_EQ(box.max().x, 5.0);
  EXPECT_DOUBLE_EQ(box.max().y, 7.0);
}

TEST(Grid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(Grid(0.0), std::invalid_argument);
  EXPECT_THROW(Grid(-1.0), std::invalid_argument);
}

TEST(Grid, CellOfUsesFloorSemantics) {
  const Grid g(100.0);
  EXPECT_EQ(g.cell_of({0, 0}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({99.99, 99.99}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({100.0, 0.0}), (CellIndex{1, 0}));
  EXPECT_EQ(g.cell_of({-0.01, 0.0}), (CellIndex{-1, 0}));
  EXPECT_EQ(g.cell_of({-100.0, -100.0}), (CellIndex{-1, -1}));
}

TEST(Grid, SnapGoesToCellCenter) {
  const Grid g(100.0);
  EXPECT_EQ(g.snap({10, 20}), (Point{50, 50}));
  EXPECT_EQ(g.snap({-10, -20}), (Point{-50, -50}));
}

TEST(Grid, SnapIsIdempotent) {
  const Grid g(115.0);
  const Point once = g.snap({1234.5, -987.6});
  EXPECT_EQ(g.snap(once), once);
}

TEST(Grid, OriginShiftsCells) {
  const Grid g(100.0, {50.0, 50.0});
  EXPECT_EQ(g.cell_of({60, 60}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({40, 40}), (CellIndex{-1, -1}));
}

TEST(Grid, CellBoundsContainCellPoints) {
  const Grid g(115.0);
  const Point p{333.3, -777.7};
  const CellIndex c = g.cell_of(p);
  EXPECT_TRUE(g.cell_bounds(c).contains(p));
  EXPECT_TRUE(g.cell_bounds(c).contains(g.cell_center(c)));
}

TEST(Grid, CoverageCountsDistinctCells) {
  const Grid g(100.0);
  const std::vector<Point> pts{{10, 10}, {20, 20}, {150, 10}, {10, 150}};
  EXPECT_EQ(g.covered_cells(pts).size(), 3u);
  expect_same_cells(g.covered_cells(pts), oracle_cells(g, pts));
}

// The covered_cells overloads take a different path than cell_of
// (arithmetic floor, consecutive-cell dedup, open-addressed probe table)
// and must land on exactly the per-point cell_of set. Exercise the
// hostile cases: cell boundaries, negative coordinates, revisits that
// defeat the consecutive dedup, and cell (-1, -1), whose packed key
// collides with the probe table's empty sentinel.
TEST(Grid, ColumnarCoverageMatchesPointwise) {
  const Grid g(100.0, {50.0, 50.0});
  const std::vector<double> xs{10,  20,  150, 10, -10, 49.9999, 50,  150, 10,  -1000.5, 10},
      ys{10, 20, 10, 150, -10, 50, 50, 10, 10, 2000.25, 10};
  std::vector<Point> pts;
  for (std::size_t i = 0; i < xs.size(); ++i) pts.push_back({xs[i], ys[i]});
  const CellSet expected = g.covered_cells(pts);
  EXPECT_EQ(g.covered_cells(xs, ys), expected);
  expect_same_cells(expected, oracle_cells(g, pts));
}

TEST(Grid, ColumnarCoverageSentinelCell) {
  // A point in cell (-1, -1) packs to the all-ones key the table uses as
  // its free-slot marker; it must still be counted once, found, and
  // compared like any other cell.
  const Grid g(100.0);
  const std::vector<double> xs{-10, -10, 10, -10}, ys{-10, -10, 10, -20};
  const CellSet cells = g.covered_cells(xs, ys);
  EXPECT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells.contains(CellIndex{-1, -1}));
  expect_same_cells(cells, {{-1, -1}, {0, 0}});

  const std::vector<double> only_xs{-10}, only_ys{-10}, other_xs{10, 110}, other_ys{10, 10};
  const CellSet only = g.covered_cells(only_xs, only_ys);
  const CellSet other = g.covered_cells(other_xs, other_ys);  // (0,0), (1,0)
  expect_same_cells(only, {{-1, -1}});
  EXPECT_FALSE(only == other);
  EXPECT_FALSE(other.contains({-1, -1}));
  EXPECT_EQ(intersection_size(cells, only), 1u);
  EXPECT_EQ(intersection_size(only, other), 0u);
  EXPECT_EQ(intersection_size(cells, other), 1u);
  EXPECT_DOUBLE_EQ(jaccard(cells, only), 0.5);
  EXPECT_DOUBLE_EQ(f1_score(cells, only), 2.0 * 1.0 * 0.5 / 1.5);
}

TEST(Grid, ColumnarCoverageManyCells) {
  // Enough distinct cells to force the probe table through several
  // growth steps (reserved for 750 cells at 3001 points, 3001 distinct
  // here); sets must still match the pointwise path and the oracle.
  const Grid g(1.0);
  std::vector<double> xs, ys;
  std::vector<Point> pts;
  for (int i = 0; i <= 3000; ++i) {
    // The last point lands in cell (-1, -1).
    const double x = i < 3000 ? static_cast<double>((i * 37) % 191) - 95.5 : -0.5;
    const double y = i < 3000 ? static_cast<double>((i * 53) % 173) - 86.5 : -0.5;
    xs.push_back(x);
    ys.push_back(y);
    pts.push_back({x, y});
  }
  const CellSet expected = g.covered_cells(pts);
  EXPECT_EQ(g.covered_cells(xs, ys), expected);
  const CellOracle oracle = oracle_cells(g, pts);
  EXPECT_EQ(oracle.size(), 3001u);
  expect_same_cells(expected, oracle);
}

TEST(Grid, ColumnarCoverageRejectsMismatchedColumns) {
  const Grid g(100.0);
  const std::vector<double> xs{1, 2}, ys{1};
  EXPECT_THROW((void)g.covered_cells(xs, ys), std::invalid_argument);
}

TEST(Grid, ColumnarCoverageRejectsOutOfRangeCells) {
  // NaN, ±inf and far-away coordinates have no cell axis in
  // [-2^31, 2^31): rasterizing them throws instead of casting them to a
  // shared garbage cell or aliasing cells 2^32 apart.
  const Grid g(1.0);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, 1e300, -1e300, 2147483648.0}) {
    const std::vector<double> xs{0.5, bad}, ys{0.5, 0.5};
    EXPECT_THROW((void)g.covered_cells(xs, ys), std::out_of_range) << bad;
    EXPECT_THROW((void)g.covered_cells(ys, xs), std::out_of_range) << bad;
    const std::vector<Point> pts{{0.5, 0.5}, {bad, 0.5}};
    EXPECT_THROW((void)g.covered_cells(pts), std::out_of_range) << bad;
  }
  // The extreme axes themselves rasterize, and stay distinct.
  const std::vector<double> xs{-2147483648.0, 2147483647.5, 0.5}, ys{0.5, 0.5, 0.5};
  expect_same_cells(g.covered_cells(xs, ys), {{-2147483648, 0}, {2147483647, 0}, {0, 0}});
}

TEST(CellSetOps, JaccardIdenticalSetsIsOne) {
  const Grid g(100.0);
  const std::vector<Point> pts{{10, 10}, {150, 10}, {250, 10}};
  const CellSet a = g.covered_cells(pts);
  EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
  EXPECT_DOUBLE_EQ(f1_score(a, a), 1.0);
}

TEST(CellSetOps, EmptySetsConventions) {
  const CellSet empty;
  CellSet one;
  one.insert({0, 0});
  EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(f1_score(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(f1_score(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(f1_score(one, empty), 0.0);
}

TEST(CellSetOps, PartialOverlap) {
  CellSet a;
  a.insert({0, 0});
  a.insert({1, 0});
  CellSet b;
  b.insert({1, 0});
  b.insert({2, 0});
  EXPECT_DOUBLE_EQ(intersection_size(a, b), 1u);
  EXPECT_DOUBLE_EQ(jaccard(a, b), 1.0 / 3.0);
  // precision = recall = 1/2 -> F1 = 1/2.
  EXPECT_DOUBLE_EQ(f1_score(a, b), 0.5);
}

TEST(CellSetOps, F1AsymmetricSizes) {
  CellSet actual;
  for (int i = 0; i < 10; ++i) actual.insert({i, 0});
  CellSet pred;
  pred.insert({0, 0});
  // precision 1, recall 0.1 -> F1 = 2*0.1/1.1.
  EXPECT_NEAR(f1_score(actual, pred), 2.0 * 0.1 / 1.1, 1e-12);
}

TEST(CellSetOps, MatchOracleThroughGrowth) {
  // Random cells around the origin, (-1, -1) among them, inserted in
  // rounds that take each table through several growth steps. After
  // every round each operation must agree with the ordered-set oracle,
  // and the set ops must give the oracle counts' exact doubles.
  stats::Rng rng(2016);
  CellSet a, b;
  CellOracle oa, ob;
  EXPECT_TRUE(a.insert({-1, -1}));
  EXPECT_FALSE(a.insert({-1, -1}));
  oa.insert({-1, -1});
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40 << round; ++i) {
      const CellIndex c{static_cast<std::int64_t>(rng.uniform_index(81)) - 40,
                        static_cast<std::int64_t>(rng.uniform_index(81)) - 40};
      CellSet& set = (i % 3 == 0) ? b : a;
      CellOracle& oracle = (i % 3 == 0) ? ob : oa;
      EXPECT_EQ(set.insert(c), oracle.insert({c.col, c.row}).second);
    }
    expect_same_cells(a, oa);
    expect_same_cells(b, ob);
    const std::size_t inter = oracle_intersection(oa, ob);
    const std::size_t uni = oa.size() + ob.size() - inter;
    EXPECT_EQ(intersection_size(a, b), inter);
    EXPECT_EQ(intersection_size(b, a), inter);
    EXPECT_EQ(jaccard(a, b), static_cast<double>(inter) / static_cast<double>(uni));
    const double precision = static_cast<double>(inter) / static_cast<double>(ob.size());
    const double recall = static_cast<double>(inter) / static_cast<double>(oa.size());
    EXPECT_EQ(f1_score(a, b),
              inter == 0 ? 0.0 : 2.0 * precision * recall / (precision + recall));
    EXPECT_EQ(a == b, oa == ob);
  }
  // Equality ignores insertion order and table capacity.
  CellSet reversed;
  reversed.reserve(5000);
  for (auto it = oa.rbegin(); it != oa.rend(); ++it) reversed.insert({it->first, it->second});
  EXPECT_TRUE(reversed == a);
  EXPECT_TRUE(a == reversed);
  reversed.insert({1000, 1000});
  EXPECT_FALSE(reversed == a);
}

TEST(CellSetOps, AxesOutsideKeyRangeAreRejected) {
  // Cells 2^32 apart share a key's low bits; the set refuses them rather
  // than alias them.
  CellSet cells;
  cells.insert({0, 0});
  cells.insert({-2147483648LL, 2147483647LL});
  EXPECT_THROW(cells.insert({std::int64_t{1} << 32, 0}), std::out_of_range);
  EXPECT_THROW(cells.insert({0, -2147483649LL}), std::out_of_range);
  EXPECT_FALSE(cells.contains({std::int64_t{1} << 32, 0}));
  EXPECT_TRUE(cells.contains({-2147483648LL, 2147483647LL}));
  EXPECT_EQ(cells.size(), 2u);
}

TEST(CellIndexHash, DistinctCellsHashDifferently) {
  const CellIndexHash h;
  EXPECT_NE(h({0, 0}), h({0, 1}));
  EXPECT_NE(h({1, 0}), h({0, 1}));
  EXPECT_NE(h({-1, -1}), h({1, 1}));
}

TEST(GridExtent, DimensionsCoverTheBox) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_EQ(g.cols(), 10u);
  EXPECT_EQ(g.rows(), 5u);
  EXPECT_EQ(g.cell_count(), 50u);
  // Non-divisible extent rounds up: a partial last column still exists.
  const GridExtent ragged(BoundingBox({0, 0}, {101, 50}), 10.0);
  EXPECT_EQ(ragged.cols(), 11u);
}

TEST(GridExtent, RejectsEmptyBoxAndBadCellSize) {
  EXPECT_THROW(GridExtent(BoundingBox(), 10.0), std::invalid_argument);
  EXPECT_THROW(GridExtent(BoundingBox({0, 0}, {1, 1}), 0.0), std::invalid_argument);
  EXPECT_THROW(GridExtent(BoundingBox({0, 0}, {1, 1}), -1.0), std::invalid_argument);
}

TEST(GridExtent, InteriorPointsUseFloorSemantics) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_EQ(g.cell_of({5, 5}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({10, 10}), (CellIndex{1, 1}));  // interior boundary: upper cell
  EXPECT_EQ(g.cell_of({99.9, 49.9}), (CellIndex{9, 4}));
}

TEST(GridExtent, NorthEastEdgeLandsInLastCell) {
  // Regression: the box is closed, so a point exactly on the max edge
  // must land in the last row/column — floor semantics alone would
  // index one past the end (col 10 of 10, row 5 of 5).
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_TRUE(g.contains({100, 50}));
  EXPECT_EQ(g.cell_of({100, 50}), (CellIndex{9, 4}));
  EXPECT_EQ(g.cell_of({100, 25}), (CellIndex{9, 2}));  // east edge only
  EXPECT_EQ(g.cell_of({25, 50}), (CellIndex{2, 4}));   // north edge only
  EXPECT_LT(g.linear_index({100, 50}), g.cell_count());
  EXPECT_EQ(g.linear_index({100, 50}), g.cell_count() - 1);
}

TEST(GridExtent, LastUlpBelowTheEdgeStaysInLastCell) {
  // (p - min) / cell can round up to exactly cols for points a hair
  // inside the edge; the clamp must absorb that wobble too.
  const GridExtent g(BoundingBox({0, 0}, {0.7, 0.7}), 0.1);
  const double just_inside = std::nextafter(0.7, 0.0);
  const CellIndex c = g.cell_of({just_inside, just_inside});
  EXPECT_EQ(c, g.cell_of({0.7, 0.7}));
  EXPECT_LT(g.linear_index({just_inside, just_inside}), g.cell_count());
}

TEST(GridExtent, OutsideTheBoxThrows) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_THROW((void)g.cell_of({-0.1, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_of({100.1, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_of({5, 50.1}), std::out_of_range);
}

TEST(GridExtent, DegenerateAxisStillRasterizesToOneCell) {
  // A box built from points on one horizontal line has zero height.
  BoundingBox line;
  line.extend({0, 5});
  line.extend({30, 5});
  const GridExtent g(line, 10.0);
  EXPECT_EQ(g.rows(), 1u);
  EXPECT_EQ(g.cols(), 3u);
  EXPECT_EQ(g.cell_of({30, 5}), (CellIndex{2, 0}));
}

TEST(GridExtent, CellCenterMatchesCellOf) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  for (const Point p : {Point{5, 5}, Point{95, 45}, Point{100, 50}}) {
    const CellIndex c = g.cell_of(p);
    const Point center = g.cell_center(c);
    EXPECT_EQ(g.cell_of(center), c);
  }
  EXPECT_THROW((void)g.cell_center({10, 0}), std::out_of_range);
  EXPECT_THROW((void)g.cell_center({0, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_center({-1, 0}), std::out_of_range);
}

}  // namespace
}  // namespace locpriv::geo
