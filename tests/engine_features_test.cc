// Tests for the query-surface extensions: EXPLAIN, LIMIT, DROP UDF,
// SHOW UDFS, and the covered-read counter.

#include <gtest/gtest.h>

#include "engine/eva_engine.h"
#include "obs/metrics.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

using optimizer::ReuseMode;

catalog::VideoInfo FeatVideo() {
  catalog::VideoInfo v;
  v.name = "feat";
  v.num_frames = 200;
  v.mean_objects_per_frame = 6;
  v.seed = 31;
  return v;
}

std::unique_ptr<EvaEngine> MakeEngineOrDie() {
  auto r = vbench::MakeEngine(ReuseMode::kEva, FeatVideo());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(ExplainTest, ReturnsPlanWithoutExecuting) {
  auto engine = MakeEngineOrDie();
  auto r = engine->Execute(
      "EXPLAIN SELECT id, obj FROM feat CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 50 AND label = 'car' AND "
      "CarType(frame, bbox) = 'Nissan';");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Plan rows came back...
  ASSERT_GT(r.value().batch.num_rows(), 3u);
  std::string all;
  for (size_t i = 0; i < r.value().batch.num_rows(); ++i) {
    all += r.value().batch.GetByName(i, "plan").AsString() + "\n";
  }
  EXPECT_NE(all.find("VideoScan"), std::string::npos);
  EXPECT_NE(all.find("Apply(FasterRCNNResNet50)"), std::string::npos);
  // ... but nothing executed: no UDF invocations, no views, no coverage.
  EXPECT_EQ(r.value().metrics.TotalInvocations(), 0);
  EXPECT_DOUBLE_EQ(engine->views().TotalSizeBytes(), 0);
  EXPECT_FALSE(engine->udf_manager().HasCoverage(
      "FasterRCNNResNet50@feat"));
}

TEST(ExplainTest, ShowsReuseOperatorsOnWarmState) {
  auto engine = MakeEngineOrDie();
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM feat CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 100;")
                  .ok());
  auto r = engine->Execute(
      "EXPLAIN SELECT id, obj FROM feat CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 80;");
  ASSERT_TRUE(r.ok());
  std::string all;
  for (size_t i = 0; i < r.value().batch.num_rows(); ++i) {
    all += r.value().batch.GetByName(i, "plan").AsString() + "\n";
  }
  EXPECT_NE(all.find("ViewJoin"), std::string::npos);
  EXPECT_NE(all.find("CondApply"), std::string::npos);
  EXPECT_NE(all.find("Store"), std::string::npos);
}

TEST(ExplainTest, RejectsNonSelect) {
  auto engine = MakeEngineOrDie();
  EXPECT_FALSE(engine->Execute("EXPLAIN SHOW UDFS;").ok());
}

TEST(CoveredQueryTest, RepeatedQueryCountsAsCovered) {
  // A covered read computes and stores nothing: the first run of a query
  // materializes, its repeat (and any query inside its coverage) is
  // answered from the views alone; a wider query is not.
  auto engine = MakeEngineOrDie();
  obs::MetricsRegistry local;
  engine->set_metrics_registry(&local);
  obs::Counter* covered = local.GetCounter(
      "eva_queries_covered_total",
      "SELECTs whose every candidate UDF had p- = FALSE at optimize time: "
      "no CondApply work and no STORE inserts.");
  const std::string q =
      "SELECT id, obj, label FROM feat CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 100 AND label = 'car' AND CarType(frame, bbox) = 'Nissan';";
  ASSERT_TRUE(engine->Execute(q).ok());
  EXPECT_EQ(covered->Value(), 0);
  auto again = engine->Execute(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(covered->Value(), 1);
  EXPECT_EQ(again.value().metrics.invocations.at("FasterRCNNResNet50"),
            again.value().metrics.reused.at("FasterRCNNResNet50"));
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM feat CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 50;")
                  .ok());
  EXPECT_EQ(covered->Value(), 2);
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM feat CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 150;")
                  .ok());
  EXPECT_EQ(covered->Value(), 2);
}

TEST(LimitTest, CapsRowCount) {
  auto engine = MakeEngineOrDie();
  auto full = engine->Execute(
      "SELECT id, obj FROM feat CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 50 AND label = 'car';");
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().batch.num_rows(), 10u);
  auto limited = engine->Execute(
      "SELECT id, obj FROM feat CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 50 AND label = 'car' LIMIT 10;");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited.value().batch.num_rows(), 10u);
  auto zero = engine->Execute(
      "SELECT id, obj FROM feat CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 50 LIMIT 0;");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value().batch.num_rows(), 0u);
}

TEST(LimitTest, LimitAfterGroupBy) {
  auto engine = MakeEngineOrDie();
  auto r = engine->Execute(
      "SELECT id, COUNT(*) FROM feat CROSS APPLY "
      "FasterRCNNResNet50(frame) WHERE id < 50 GROUP BY id LIMIT 5;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().batch.num_rows(), 5u);
}

TEST(LimitTest, ParserRejectsBadLimit) {
  auto engine = MakeEngineOrDie();
  EXPECT_FALSE(engine->Execute("SELECT id FROM feat LIMIT x;").ok());
}

TEST(ShowUdfsTest, ListsRegisteredUdfs) {
  auto engine = MakeEngineOrDie();
  auto r = engine->Execute("SHOW UDFS;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The standard zoo: 3 detectors + 2 classifiers + 1 filter.
  EXPECT_EQ(r.value().batch.num_rows(), 6u);
  bool saw_frcnn = false;
  for (size_t i = 0; i < r.value().batch.num_rows(); ++i) {
    if (r.value().batch.GetByName(i, "name").AsString() ==
        "FasterRCNNResNet50") {
      saw_frcnn = true;
      EXPECT_EQ(r.value().batch.GetByName(i, "kind").AsString(),
                "detector");
      EXPECT_EQ(r.value().batch.GetByName(i, "logical_type").AsString(),
                "ObjectDetector");
      EXPECT_DOUBLE_EQ(r.value().batch.GetByName(i, "cost_ms").AsDouble(),
                       99);
    }
  }
  EXPECT_TRUE(saw_frcnn);
}

TEST(DropUdfTest, RemovesUdf) {
  auto engine = MakeEngineOrDie();
  ASSERT_TRUE(engine->Execute("DROP UDF VehicleFilter;").ok());
  EXPECT_FALSE(engine->catalog().HasUdf("VehicleFilter"));
  EXPECT_EQ(engine->Execute("DROP UDF VehicleFilter;").status().code(),
            StatusCode::kNotFound);
  // Queries over the dropped UDF now fail to bind.
  EXPECT_FALSE(engine
                   ->Execute("SELECT id FROM feat CROSS APPLY "
                             "FasterRCNNResNet50(frame) WHERE "
                             "VehicleFilter(frame) = true;")
                   .ok());
}

TEST(DropUdfTest, CreateAfterDropWorks) {
  auto engine = MakeEngineOrDie();
  ASSERT_TRUE(engine->Execute("DROP UDF YoloTiny;").ok());
  ASSERT_TRUE(engine
                  ->Execute("CREATE UDF YoloTiny IMPL='y.py' "
                            "LOGICAL_TYPE=ObjectDetector "
                            "PROPERTIES=('ACCURACY'='LOW', "
                            "'KIND'='DETECTOR', 'COST_MS'='9');")
                  .ok());
  EXPECT_TRUE(engine->catalog().HasUdf("YoloTiny"));
}

}  // namespace
}  // namespace eva::engine
