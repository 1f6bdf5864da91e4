#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "engine/eva_engine.h"
#include "obs/metrics.h"
#include "vbench/vbench.h"

namespace eva::engine {
namespace {

using optimizer::ReuseMode;

catalog::VideoInfo TinyVideo() {
  catalog::VideoInfo v;
  v.name = "tiny";
  v.num_frames = 400;
  v.mean_objects_per_frame = 8.3 / 0.8;
  v.seed = 7;
  return v;
}

std::unique_ptr<EvaEngine> MakeEngineOrDie(ReuseMode mode) {
  auto r = vbench::MakeEngine(mode, TinyVideo());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

const char* const kQuery =
    "SELECT id, obj, label FROM tiny CROSS APPLY "
    "FasterRCNNResNet50(frame) WHERE id < 50 AND label = 'car';";

std::string PlanText(const QueryResult& r) {
  std::string out;
  for (size_t i = 0; i < r.batch.num_rows(); ++i) {
    out += r.batch.GetByName(i, "plan").AsString();
    out += '\n';
  }
  return out;
}

// Extracts the integer following `key=` within `line`.
int64_t ExtractCount(const std::string& text, const std::string& key) {
  size_t pos = text.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::atoll(text.c_str() + pos + key.size() + 1);
}

TEST(ExplainAnalyzeTest, SecondQueryOfSessionShowsViewHits) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  obs::MetricsRegistry registry;
  engine->set_metrics_registry(&registry);

  // Query 1 materializes the detector view; nothing exists to hit yet.
  auto first = engine->Execute(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first.value().metrics.TotalInvocations(), 0);

  // Query 2 (EXPLAIN ANALYZE, same predicate range) must probe the view
  // and report per-operator hits in the annotated tree.
  auto second = engine->Execute(std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  std::string plan = PlanText(second.value());
  EXPECT_NE(plan.find("ViewJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("sim="), std::string::npos) << plan;
  EXPECT_GT(ExtractCount(plan, "view_hits"), 0) << plan;

  // The registry saw the same probes.
  obs::Counter* hits = registry.GetCounter(
      "eva_view_probe_hits_total",
      "Tuples whose UDF result was found in a materialized view.",
      {{"udf", "FasterRCNNResNet50"}});
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->Value(), 0.0);
}

TEST(ExplainAnalyzeTest, ExecutesWithReuseSideEffects) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  engine->set_metrics_registry(nullptr);
  auto r = engine->Execute(std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Unlike plain EXPLAIN, the query really ran: the view exists and the
  // metrics carry real invocations.
  EXPECT_FALSE(engine->views().views().empty());
  EXPECT_GT(r.value().metrics.TotalInvocations(), 0);
  // A follow-up run reuses what EXPLAIN ANALYZE materialized.
  auto followup = engine->Execute(kQuery);
  ASSERT_TRUE(followup.ok());
  EXPECT_GT(followup.value().metrics.TotalReused(), 0);
}

TEST(ExplainAnalyzeTest, PlainExplainStaysSideEffectFree) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  auto r = engine->Execute(std::string("EXPLAIN ") + kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(engine->views().views().empty());
  EXPECT_EQ(r.value().metrics.TotalInvocations(), 0);
  // Plain EXPLAIN output has no runtime annotations.
  EXPECT_EQ(PlanText(r.value()).find("rows="), std::string::npos);
}

TEST(ExplainAnalyzeTest, AnnotatedTreeCoversEveryOperator) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  engine->set_metrics_registry(nullptr);
  auto r = engine->Execute(std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string plan = PlanText(r.value());
  // Every plan line carries a stats block.
  size_t lines = 0, annotated = 0, admission_lines = 0;
  size_t start = 0;
  while (start < plan.size()) {
    size_t end = plan.find('\n', start);
    std::string line = plan.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    // Lifecycle admission decisions and the symbolic fast-path summary
    // trail the operator tree.
    if (line.rfind("admission:", 0) == 0) {
      ++admission_lines;
      continue;
    }
    if (line.rfind("symbolic:", 0) == 0) continue;
    ++lines;
    if (line.find("[rows=") != std::string::npos) ++annotated;
  }
  EXPECT_GT(lines, 2u);
  EXPECT_EQ(lines, annotated) << plan;
  // EVA mode materializes UDF results, so the lifecycle manager reports at
  // least one admission decision for the query's UDFs.
  EXPECT_GT(admission_lines, 0u) << plan;
  EXPECT_NE(plan.find("self="), std::string::npos);
  EXPECT_NE(plan.find("materialized="), std::string::npos) << plan;
}

// Extracts the number following `key=` within `text` (NaN when absent).
double ExtractMs(const std::string& text, const std::string& key) {
  size_t pos = text.find(" " + key + "=");
  if (pos == std::string::npos) return std::nan("");
  return std::atof(text.c_str() + pos + key.size() + 2);
}

// Every operator line reports its host wall time, total and self (the
// node minus its children). The totals nest, so self times are never
// negative and add up to the root's total.
TEST(ExplainAnalyzeTest, RendersWallTimeTotalAndSelf) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  engine->set_metrics_registry(nullptr);
  ASSERT_TRUE(engine->Execute(kQuery).ok());
  auto r = engine->Execute(std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string plan = PlanText(r.value());
  double root_wall = -1;
  double self_sum = 0;
  int nodes = 0;
  size_t start = 0;
  while (start < plan.size()) {
    size_t end = plan.find('\n', start);
    std::string line = plan.substr(start, end - start);
    start = end + 1;
    if (line.find("[rows=") == std::string::npos) continue;
    const double wall = ExtractMs(line, "wall");
    const double self = ExtractMs(line, "self_wall");
    ASSERT_FALSE(std::isnan(wall)) << line;
    ASSERT_FALSE(std::isnan(self)) << line;
    EXPECT_GE(wall, 0.0) << line;
    EXPECT_GE(self, -0.001) << line;  // %.3f rounding
    EXPECT_LE(self, wall + 0.001) << line;
    if (root_wall < 0) root_wall = wall;  // the first line is the root
    self_sum += self;
    ++nodes;
  }
  ASSERT_GT(nodes, 2) << plan;
  EXPECT_GT(root_wall, 0.0) << plan;
  EXPECT_NEAR(self_sum, root_wall, 0.001 * nodes) << plan;
}

TEST(ExplainAnalyzeTest, TracerRecordsSessionSpans) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  engine->set_metrics_registry(nullptr);
  ASSERT_TRUE(engine->Execute(kQuery).ok());
  auto analyzed =
      engine->Execute(std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_TRUE(analyzed.ok());

  const auto& spans = engine->tracer().spans();
  ASSERT_FALSE(spans.empty());
  bool has_query = false, has_parse = false, has_optimize = false,
       has_execute = false, has_probe = false;
  int query_index = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& rec = spans[i];
    EXPECT_FALSE(rec.open) << rec.name;
    if (rec.name == "query") {
      has_query = true;
      query_index = static_cast<int>(i);
    }
    if (rec.name == "parse") {
      has_parse = true;
      EXPECT_EQ(rec.parent, query_index);
    }
    if (rec.name == "optimize") has_optimize = true;
    if (rec.name == "execute") has_execute = true;
    if (rec.category == "view-probe") has_probe = true;
  }
  EXPECT_TRUE(has_query && has_parse && has_optimize && has_execute);
  EXPECT_TRUE(has_probe);  // synthesized ViewJoin span from EXPLAIN ANALYZE
  std::string text = engine->tracer().RenderText();
  EXPECT_NE(text.find("view_hits="), std::string::npos);

  engine->ClearReuseState();
  EXPECT_TRUE(engine->tracer().spans().empty());
}

TEST(ExplainAnalyzeTest, ObservabilityNeverChargesSimulatedClock) {
  vbench::WorkloadResult with_obs, without_obs;
  {
    auto engine = MakeEngineOrDie(ReuseMode::kEva);
    obs::MetricsRegistry registry;
    engine->set_metrics_registry(&registry);
    auto r = vbench::RunWorkload(
        engine.get(), vbench::VbenchHigh("tiny", TinyVideo().num_frames));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    with_obs = r.MoveValue();
  }
  {
    engine::EngineOptions options;
    options.optimizer.mode = ReuseMode::kEva;
    options.observability = false;
    auto engine_r = vbench::MakeEngine(options, TinyVideo());
    ASSERT_TRUE(engine_r.ok());
    auto engine = engine_r.MoveValue();
    EXPECT_EQ(engine->metrics_registry(), nullptr);
    auto r = vbench::RunWorkload(
        engine.get(), vbench::VbenchHigh("tiny", TinyVideo().num_frames));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    without_obs = r.MoveValue();
    EXPECT_TRUE(engine->tracer().spans().empty());
  }
  // Bit-identical simulated time: instrumentation is invisible to the
  // clock (the <2% acceptance bound holds trivially).
  EXPECT_EQ(with_obs.total_ms, without_obs.total_ms);
  EXPECT_EQ(with_obs.total_invocations, without_obs.total_invocations);
  EXPECT_EQ(with_obs.total_reused, without_obs.total_reused);
}

TEST(ExplainAnalyzeTest, ParserRejectsAnalyzeWithoutSelect) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  EXPECT_FALSE(engine->Execute("EXPLAIN ANALYZE SHOW UDFS;").ok());
}

TEST(ExplainAnalyzeTest, WorkloadAggregateJsonAccumulates) {
  auto engine = MakeEngineOrDie(ReuseMode::kEva);
  engine->set_metrics_registry(nullptr);
  auto r = vbench::RunWorkload(
      engine.get(), {kQuery, kQuery});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const vbench::WorkloadResult& result = r.value();
  EXPECT_DOUBLE_EQ(result.aggregate.TotalMs(), result.total_ms);
  EXPECT_EQ(result.aggregate.TotalInvocations(), result.total_invocations);
  std::string json = result.AggregateJson();
  EXPECT_NE(json.find("\"invocations\""), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
  EXPECT_NE(json.find("FasterRCNNResNet50"), std::string::npos);
}

}  // namespace
}  // namespace eva::engine
