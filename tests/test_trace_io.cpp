#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "geo/projection.h"
#include "trace/trace_io.h"

namespace locpriv::trace {
namespace {

Dataset sample_dataset() {
  Dataset d;
  d.add(Trace("cab-000", {{0, {10.5, -20.25}}, {60, {11.0, -21.0}}}));
  d.add(Trace("cab-001", {{30, {0.0, 0.0}}}));
  return d;
}

TEST(TraceIo, PlanarRoundTrip) {
  std::ostringstream out;
  write_dataset_csv(out, sample_dataset());
  std::istringstream in(out.str());
  const Dataset back = read_dataset_csv(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].user_id(), "cab-000");
  EXPECT_EQ(back[0].size(), 2u);
  EXPECT_NEAR(back[0][0].location.x, 10.5, 1e-6);
  EXPECT_NEAR(back[0][1].location.y, -21.0, 1e-6);
  EXPECT_EQ(back[1][0].time, 30);
}

TEST(TraceIo, PreservesUserOrder) {
  std::ostringstream out;
  write_dataset_csv(out, sample_dataset());
  std::istringstream in(out.str());
  const Dataset back = read_dataset_csv(in);
  EXPECT_EQ(back[0].user_id(), "cab-000");
  EXPECT_EQ(back[1].user_id(), "cab-001");
}

TEST(TraceIo, InterleavedUsersRegroup) {
  std::istringstream in(
      "user,timestamp,x,y\n"
      "a,0,0,0\n"
      "b,0,1,1\n"
      "a,60,2,2\n");
  const Dataset d = read_dataset_csv(in);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].user_id(), "a");
  EXPECT_EQ(d[0].size(), 2u);
  EXPECT_EQ(d[1].size(), 1u);
}

TEST(TraceIo, OutOfOrderTimestampsSorted) {
  std::istringstream in(
      "user,timestamp,x,y\n"
      "a,60,2,2\n"
      "a,0,1,1\n");
  const Dataset d = read_dataset_csv(in);
  EXPECT_EQ(d[0][0].time, 0);
  EXPECT_EQ(d[0][1].time, 60);
}

TEST(TraceIo, SchemaErrors) {
  std::istringstream empty("");
  EXPECT_THROW(read_dataset_csv(empty), std::runtime_error);
  std::istringstream badheader("usr,ts,x,y\na,0,0,0\n");
  EXPECT_THROW(read_dataset_csv(badheader), std::runtime_error);
  std::istringstream shortrow("user,timestamp,x,y\na,0,0\n");
  EXPECT_THROW(read_dataset_csv(shortrow), std::runtime_error);
  std::istringstream badnum("user,timestamp,x,y\na,0,abc,0\n");
  EXPECT_THROW(read_dataset_csv(badnum), std::runtime_error);
  std::istringstream badtime("user,timestamp,x,y\na,xyz,0,0\n");
  EXPECT_THROW(read_dataset_csv(badtime), std::runtime_error);
}

TEST(TraceIo, GeoRoundTripThroughProjection) {
  const geo::LocalProjection proj({37.7749, -122.4194});
  std::ostringstream out;
  write_dataset_geo_csv(out, sample_dataset(), proj);
  std::istringstream in(out.str());
  const Dataset back = read_dataset_geo_csv(in, proj);
  ASSERT_EQ(back.size(), 2u);
  // %.6f degrees keeps ~0.1 m precision; the planar offsets here are
  // tens of meters, so round-trip error stays well under a meter.
  EXPECT_NEAR(back[0][0].location.x, 10.5, 0.5);
  EXPECT_NEAR(back[0][0].location.y, -20.25, 0.5);
}

TEST(TraceIo, GeoRejectsOutOfRangeCoordinates) {
  const geo::LocalProjection proj({0, 0});
  std::istringstream in("user,timestamp,lat,lng\na,0,95.0,0\n");
  EXPECT_THROW(read_dataset_geo_csv(in, proj), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/locpriv_traceio_test.csv";
  save_dataset(path, sample_dataset());
  const Dataset back = load_dataset(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_THROW(load_dataset("/nonexistent/x.csv"), std::runtime_error);
}

TEST(TraceIo, SaveFormatFollowsExtensionAndOverride) {
  const Dataset d = sample_dataset();
  const std::string csv_path = testing::TempDir() + "/locpriv_traceio_auto.csv";
  const std::string bin_path = testing::TempDir() + "/locpriv_traceio_auto.lpds";
  save_dataset(csv_path, d);
  save_dataset(bin_path, d);
  EXPECT_FALSE(is_binary_dataset_file(csv_path));
  EXPECT_TRUE(is_binary_dataset_file(bin_path));
  // A forced format wins over the extension.
  const std::string forced = testing::TempDir() + "/locpriv_traceio_forced.csv";
  save_dataset(forced, d, {.format = SaveOptions::Format::kBinary});
  EXPECT_TRUE(is_binary_dataset_file(forced));
  const Dataset back = load_dataset(forced);
  EXPECT_EQ(back.size(), 2u);
}

TEST(TraceIo, ForcedCsvRoundTripIgnoresBinaryExtension) {
  const std::string path = testing::TempDir() + "/locpriv_traceio_forced.lpds";
  save_dataset(path, sample_dataset(), {.format = SaveOptions::Format::kCsv});
  EXPECT_FALSE(is_binary_dataset_file(path));
  const Dataset back = load_dataset(path, {.format = LoadOptions::Format::kCsv});
  EXPECT_EQ(back.size(), 2u);
  EXPECT_THROW(load_dataset("/nonexistent/x.lpds", {.format = LoadOptions::Format::kCsv}),
               std::runtime_error);
}

TEST(TraceIo, LoadedDatasetsAreArenaBacked) {
  const std::string path = testing::TempDir() + "/locpriv_traceio_arena.csv";
  save_dataset(path, sample_dataset());
  const Dataset back = load_dataset(path);
  EXPECT_TRUE(back.columnar());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].is_view());
}

}  // namespace
}  // namespace locpriv::trace
