#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/statistics.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"

namespace eva::storage {
namespace {

Schema DetSchema() {
  return Schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"area", DataType::kDouble},
                 {"score", DataType::kDouble}});
}

TEST(MaterializedViewTest, PresenceDistinctFromEmptiness) {
  MaterializedView view("det@v", DetSchema());
  EXPECT_FALSE(view.TryGet({5, -1}).has_value());
  EXPECT_TRUE(view.Put({5, -1}, {}));  // processed frame, zero detections
  ASSERT_TRUE(view.TryGet({5, -1}).has_value());
  EXPECT_TRUE(view.TryGet({5, -1})->empty());
  EXPECT_EQ(view.num_keys(), 1);
  EXPECT_EQ(view.num_rows(), 0);
}

TEST(MaterializedViewTest, PutIsIdempotentAppendOnly) {
  MaterializedView view("det@v", DetSchema());
  EXPECT_TRUE(view.Put({1, -1}, {{Value(int64_t{0}), Value("car"),
                                  Value(0.3), Value(0.9)}}));
  EXPECT_EQ(view.num_rows(), 1);
  // Re-putting an existing key is a no-op (STORE semantics), reported as
  // such — before and after the segment is sealed.
  const std::vector<Row> again = {
      {Value(int64_t{0}), Value("bus"), Value(0.1), Value(0.2)},
      {Value(int64_t{1}), Value("car"), Value(0.2), Value(0.8)}};
  EXPECT_FALSE(view.Put({1, -1}, again));
  view.SealAllSegments();
  EXPECT_FALSE(view.Put({1, -1}, again));
  EXPECT_EQ(view.num_rows(), 1);
  EXPECT_EQ((*view.TryGet({1, -1}))[0][1].AsString(), "car");
}

TEST(MaterializedViewTest, ObjectLevelKeys) {
  MaterializedView view("CarType@v", Schema({{"CarType",
                                              DataType::kString}}));
  view.Put({3, 0}, {{Value("Nissan")}});
  view.Put({3, 1}, {{Value("Toyota")}});
  EXPECT_TRUE(view.TryGet({3, 0}).has_value());
  EXPECT_FALSE(view.TryGet({3, 2}).has_value());
  EXPECT_FALSE(view.TryGet({3, -1}).has_value());
  EXPECT_EQ((*view.TryGet({3, 1}))[0][0].AsString(), "Toyota");
}

// A batch Put copies the value cells straight out of chunk columns: key i
// takes the cells at its selected rows, and a value column past the end
// of the given columns stores NULL.
TEST(MaterializedViewTest, PutCopiesCellsFromColumnSlices) {
  MaterializedView view("det@v", DetSchema());
  const std::vector<Row> rows = {
      {Value(int64_t{7}), Value("frame"), Value(int64_t{2}), Value("car"),
       Value(0.5)},
      {Value(int64_t{8}), Value("skip"), Value(int64_t{9}), Value("bus"),
       Value(0.1)},
      {Value(int64_t{7}), Value("frame"), Value(int64_t{3}), Value("bus"),
       Value::Null()}};
  std::vector<ColumnBuilder> cols(5);
  for (const Row& row : rows) {
    for (size_t c = 0; c < cols.size(); ++c) cols[c].Append(row[c]);
  }
  const std::vector<uint32_t> sel = {0, 2, 1};
  const std::vector<MaterializedView::KeyRows> keys = {
      {{7, -1}, 0, 2}, {{8, -1}, 2, 3}, {{7, -1}, 0, 1}};
  std::vector<uint8_t> inserted;
  // Value columns start at column 2; the fourth value column (score) lies
  // past the end of the chunk and stores NULL.
  EXPECT_EQ(view.Put(keys, sel, std::span<const ColumnBuilder>(cols).subspan(2),
                     /*first_tick=*/1, /*query_id=*/0, &inserted),
            2);
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0}));  // re-put skipped
  for (bool sealed : {false, true}) {
    if (sealed) view.SealAllSegments();
    std::optional<std::vector<Row>> got = view.TryGet({7, -1});
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->size(), 2u);
    EXPECT_EQ((*got)[0][0].AsInt64(), 2);
    EXPECT_EQ((*got)[0][1].AsString(), "car");
    EXPECT_DOUBLE_EQ((*got)[0][2].AsDouble(), 0.5);
    EXPECT_TRUE((*got)[0][3].is_null());
    EXPECT_EQ((*got)[1][1].AsString(), "bus");
    EXPECT_TRUE((*got)[1][2].is_null());
    std::optional<std::vector<Row>> other = view.TryGet({8, -1});
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ((*other)[0][0].AsInt64(), 9);
  }
  // The j-th inserted key carries tick first_tick + j.
  std::vector<storage::SegmentStats> segs = view.Segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].info.created_tick, 1u);
  EXPECT_EQ(segs[0].info.last_access_tick, 2u);
}

// Probes read the sealed part and the open builder alike, and a seal
// never changes what they return.
TEST(MaterializedViewTest, ProbesSpanSealedAndOpenRows) {
  MaterializedView view("det@v", DetSchema());
  view.set_segment_frames(8);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  auto rows_of = [](int64_t f) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < f % 3; ++i) {
      rows.push_back({Value(i), Value(f % 2 == 0 ? "car" : "bus"),
                      Value(0.5 * static_cast<double>(f)), Value(0.9)});
    }
    return rows;
  };
  for (int64_t f = 0; f < 20; f += 2) view.Put({f, -1}, rows_of(f));
  view.SealAllSegments();
  for (int64_t f = 1; f < 20; f += 2) view.Put({f, -1}, rows_of(f));
  std::vector<ViewKey> keys;
  for (int64_t f = 0; f < 22; ++f) keys.push_back({f, -1});
  for (int round = 0; round < 2; ++round) {
    ProbeResult res;
    view.ProbeBatch(keys, nullptr, &res);
    ASSERT_EQ(res.outcomes.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t f = keys[i].frame;
      const ProbeOutcome& oc = res.outcomes[i];
      if (f >= 20) {
        EXPECT_EQ(oc.status, ProbeStatus::kMiss) << f;
        continue;
      }
      ASSERT_EQ(oc.status, ProbeStatus::kHit) << f;
      const std::vector<Row> want = rows_of(f);
      ASSERT_EQ(oc.rows_count, static_cast<int32_t>(want.size())) << f;
      for (int32_t r = 0; r < oc.rows_count; ++r) {
        EXPECT_EQ(res.segment(oc).RowAt(oc.rows_begin + r), want[r]) << f;
      }
    }
    view.SealAllSegments();  // second round: everything sealed
  }
  EXPECT_EQ(view.CompressionStats().sealed_segments, 3);
}

// The zone the probe path checks covers sealed and open rows together.
TEST(MaterializedViewTest, ZoneCoversSealedAndOpenRows) {
  MaterializedView view("det@v", DetSchema());
  view.Put({1, -1}, {{Value(int64_t{0}), Value("car"), Value(1.0),
                      Value(0.5)}});
  view.SealAllSegments();
  view.Put({2, -1}, {{Value(int64_t{4}), Value("bus"), Value(9.0),
                      Value(0.25)}});
  SegmentZone seen;
  ProbeResult res;
  view.ProbeBatch(std::vector<ViewKey>{ViewKey{1, -1}}, [&seen](const SegmentZone& z) {
    seen = z;
    return true;
  }, &res);
  EXPECT_EQ(seen.keys, 2);
  EXPECT_EQ(seen.frame_min, 1);
  EXPECT_EQ(seen.frame_max, 2);
  ASSERT_EQ(seen.cols.size(), 4u);
  EXPECT_TRUE(seen.cols[0].valid);
  EXPECT_DOUBLE_EQ(seen.cols[0].num_min, 0);
  EXPECT_DOUBLE_EQ(seen.cols[0].num_max, 4);
  EXPECT_EQ(seen.cols[1].strings, (std::set<std::string>{"bus", "car"}));
  EXPECT_DOUBLE_EQ(seen.cols[2].num_max, 9.0);
}

TEST(MaterializedViewTest, SizeGrowsWithContent) {
  MaterializedView view("det@v", DetSchema());
  double empty_size = view.SizeBytes();
  for (int64_t f = 0; f < 100; ++f) {
    view.Put({f, -1}, {{Value(int64_t{0}), Value("car"), Value(0.3),
                        Value(0.9)}});
  }
  EXPECT_GT(view.SizeBytes(), empty_size);
  EXPECT_LT(view.SizeBytes(), 100 * 1024);  // lightweight metadata (§5.2)
}

TEST(ViewStoreTest, GetOrCreateAndFind) {
  ViewStore store;
  EXPECT_EQ(store.Find("x"), nullptr);
  MaterializedView* v = store.GetOrCreate("x", DetSchema());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(store.GetOrCreate("x", DetSchema()), v);
  EXPECT_EQ(store.Find("x"), v);
  v->Put({1, -1}, {});
  store.Clear();
  EXPECT_EQ(store.Find("x"), nullptr);
}

TEST(ViewStoreTest, TotalSizeSumsViews) {
  ViewStore store;
  store.GetOrCreate("a", DetSchema())->Put({1, -1}, {{Value(int64_t{0}),
                                                      Value("car"),
                                                      Value(0.1),
                                                      Value(0.9)}});
  store.GetOrCreate("b", DetSchema())->Put({2, -1}, {});
  EXPECT_GT(store.TotalSizeBytes(), 0);
  EXPECT_DOUBLE_EQ(store.TotalSizeBytes(),
                   store.Find("a")->SizeBytes() +
                       store.Find("b")->SizeBytes());
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, UniformFractions) {
  Histogram h(0, 1, 20);
  for (int i = 0; i < 1000; ++i) h.Add((i % 100) / 100.0);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval::LessThan(0.5)), 0.5, 0.03);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval(
                  symbolic::Bound::Closed(0.25),
                  symbolic::Bound::Closed(0.75))),
              0.5, 0.05);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::Full()), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::Empty()), 0.0);
  EXPECT_NEAR(h.FractionIn(symbolic::Interval::GreaterThan(2.0)), 0.0,
              1e-9);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h(0, 1, 10);
  EXPECT_DOUBLE_EQ(h.FractionIn(symbolic::Interval::LessThan(0.5)), 0);
}

// --- StatisticsManager -------------------------------------------------------

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : video_([] {
          catalog::VideoInfo info = vbench::ShortUaDetrac();
          info.num_frames = 2000;
          return info;
        }()),
        stats_(video_) {}

  vision::SyntheticVideo video_;
  StatisticsManager stats_;
};

TEST_F(StatsTest, DimKinds) {
  EXPECT_EQ(stats_.KindOf("id"), symbolic::DimKind::kInteger);
  EXPECT_EQ(stats_.KindOf("area"), symbolic::DimKind::kReal);
  EXPECT_EQ(stats_.KindOf("score"), symbolic::DimKind::kReal);
  EXPECT_EQ(stats_.KindOf("label"), symbolic::DimKind::kCategorical);
  EXPECT_EQ(stats_.KindOf("CarType"), symbolic::DimKind::kCategorical);
}

TEST_F(StatsTest, IdRangeSelectivity) {
  auto c = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kInteger, symbolic::Interval::LessThan(1000));
  EXPECT_NEAR(stats_.ConstraintSelectivity("id", c), 0.5, 0.01);
  auto full = symbolic::DimConstraint::Full(symbolic::DimKind::kInteger);
  EXPECT_DOUBLE_EQ(stats_.ConstraintSelectivity("id", full), 1.0);
  auto empty = symbolic::DimConstraint::Empty(symbolic::DimKind::kInteger);
  EXPECT_DOUBLE_EQ(stats_.ConstraintSelectivity("id", empty), 0.0);
}

TEST_F(StatsTest, IdExcludedPointsSubtract) {
  auto c = symbolic::DimConstraint::Numeric(
               symbolic::DimKind::kInteger,
               symbolic::Interval(symbolic::Bound::Closed(0),
                                  symbolic::Bound::Closed(9)))
               .Intersect(symbolic::DimConstraint::NumericNotEqual(
                   symbolic::DimKind::kInteger, 5));
  EXPECT_NEAR(stats_.ConstraintSelectivity("id", c), 9.0 / 2000, 1e-6);
}

TEST_F(StatsTest, LabelFrequenciesMatchGenerator) {
  auto car = symbolic::DimConstraint::Categorical({"car"}, false);
  EXPECT_NEAR(stats_.ConstraintSelectivity("label", car), 0.8, 0.05);
  auto not_car = symbolic::DimConstraint::Categorical({"car"}, true);
  EXPECT_NEAR(stats_.ConstraintSelectivity("label", not_car), 0.2, 0.05);
}

TEST_F(StatsTest, VehicleTypeSkewReflected) {
  auto nissan = symbolic::DimConstraint::Categorical({"Nissan"}, false);
  auto bmw = symbolic::DimConstraint::Categorical({"BMW"}, false);
  double s_nissan = stats_.ConstraintSelectivity("CarType", nissan);
  double s_bmw = stats_.ConstraintSelectivity("CarType", bmw);
  EXPECT_NEAR(s_nissan, 0.30, 0.05);
  EXPECT_NEAR(s_bmw, 0.10, 0.05);
  EXPECT_GT(s_nissan, s_bmw);
}

TEST_F(StatsTest, AreaHistogramSkewsSmall) {
  auto large = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kReal, symbolic::Interval::GreaterThan(0.3));
  auto small = symbolic::DimConstraint::Numeric(
      symbolic::DimKind::kReal, symbolic::Interval::AtMost(0.15));
  double s_large = stats_.ConstraintSelectivity("area", large);
  double s_small = stats_.ConstraintSelectivity("area", small);
  // area = u^2 * 0.6: P(area > 0.3) = 1 - sqrt(0.5) ≈ 0.29,
  // P(area <= 0.15) = 0.5.
  EXPECT_NEAR(s_large, 0.29, 0.05);
  EXPECT_NEAR(s_small, 0.50, 0.05);
}

}  // namespace
}  // namespace eva::storage
