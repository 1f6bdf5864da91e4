#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/view_persistence.h"
#include "vbench/vbench.h"

namespace eva::storage {
namespace {

namespace fs = std::filesystem;

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = fs::temp_directory_path() /
           ("eva_views_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~PersistenceTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(PersistenceTest, ValueEncodingRoundTrips) {
  const Value values[] = {Value::Null(),      Value(true),
                          Value(false),       Value(int64_t{-42}),
                          Value(0.3125),      Value("Nissan"),
                          Value("two words"), Value("50%")};
  for (const Value& v : values) {
    auto decoded = DecodeValue(EncodeValue(v));
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_TRUE(decoded.value() == v)
        << v.ToString() << " -> " << EncodeValue(v) << " -> "
        << decoded.value().ToString();
  }
  EXPECT_FALSE(DecodeValue("").ok());
  EXPECT_FALSE(DecodeValue("X:1").ok());
  EXPECT_FALSE(DecodeValue("Bnocolon").ok());
}

TEST_F(PersistenceTest, ViewStoreRoundTrips) {
  ViewStore store;
  Schema det({{"obj", DataType::kInt64},
              {"label", DataType::kString},
              {"area", DataType::kDouble},
              {"score", DataType::kDouble}});
  MaterializedView* view = store.GetOrCreate("Det@v", det);
  view->Put({0, -1}, {{Value(int64_t{0}), Value("car"), Value(0.25),
                       Value(0.9)},
                      {Value(int64_t{1}), Value("bus"), Value(0.5),
                       Value(0.8)}});
  view->Put({1, -1}, {});  // presence-only entry must survive
  MaterializedView* cls =
      store.GetOrCreate("CarType@v", Schema({{"CarType",
                                              DataType::kString}}));
  cls->Put({0, 0}, {{Value("Nissan")}});
  cls->Put({0, 1}, {{Value("Toyota")}});

  ASSERT_TRUE(SaveViewStore(store, dir_.string()).ok());

  ViewStore loaded;
  ASSERT_TRUE(LoadViewStore(dir_.string(), &loaded).ok());
  MaterializedView* lv = loaded.Find("Det@v");
  ASSERT_NE(lv, nullptr);
  EXPECT_EQ(lv->num_keys(), 2);
  EXPECT_EQ(lv->num_rows(), 2);
  ASSERT_TRUE(lv->TryGet({1, -1}).has_value());
  EXPECT_TRUE(lv->TryGet({1, -1})->empty());
  const std::vector<Row> rows = lv->TryGet({0, -1}).value_or(
      std::vector<Row>{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsString(), "car");
  EXPECT_DOUBLE_EQ(rows[1][2].AsDouble(), 0.5);
  MaterializedView* lc = loaded.Find("CarType@v");
  ASSERT_NE(lc, nullptr);
  ASSERT_TRUE(lc->TryGet({0, 1}).has_value());
  EXPECT_EQ((*lc->TryGet({0, 1}))[0][0].AsString(), "Toyota");
  EXPECT_TRUE(lc->value_schema() ==
              Schema({{"CarType", DataType::kString}}));
}

TEST_F(PersistenceTest, LoadMergesWithoutOverwriting) {
  ViewStore store;
  Schema schema({{"CarType", DataType::kString}});
  store.GetOrCreate("CarType@v", schema)->Put({0, 0}, {{Value("Nissan")}});
  ASSERT_TRUE(SaveViewStore(store, dir_.string()).ok());

  ViewStore target;
  target.GetOrCreate("CarType@v", schema)->Put({0, 0}, {{Value("Ford")}});
  target.GetOrCreate("CarType@v", schema)->Put({0, 1}, {{Value("BMW")}});
  ASSERT_TRUE(LoadViewStore(dir_.string(), &target).ok());
  // Existing keys win (append-only semantics); new keys merge in.
  EXPECT_EQ((*target.Find("CarType@v")->TryGet({0, 0}))[0][0].AsString(),
            "Ford");
  EXPECT_EQ(target.Find("CarType@v")->num_keys(), 2);
}

// A codec save reloads by adopting each .evaseg segment as the sealed
// part of its segment: nothing is re-sealed, the reloaded segments hold
// exactly the encoded bytes the saved ones did (charged once sealed, like
// any segment), and every key reads back the same. Keys a store already
// holds win over adopted ones.
TEST_F(PersistenceTest, SegmentFilesAreAdoptedSealed) {
  const SegmentBuildOptions options{/*compress=*/true,
                                    /*bloom_bits_per_key=*/10};
  Schema det({{"obj", DataType::kInt64},
              {"label", DataType::kString},
              {"score", DataType::kDouble}});
  ViewStore store;
  store.set_build_options(options);
  MaterializedView* view = store.GetOrCreate("Det@v", det);
  auto rows_of = [](int64_t f) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < f % 4; ++i) {
      rows.push_back({Value(i), Value(i % 2 == 0 ? "car" : "bus"),
                      Value(0.1 * static_cast<double>(f + i))});
    }
    return rows;
  };
  for (int64_t f = 0; f < 1500; ++f) view->Put({f, -1}, rows_of(f));
  const std::string body = SerializeViewSegments("Det@v", *view);

  ViewStore loaded;
  loaded.set_build_options(options);
  ASSERT_TRUE(ParseSegmentBody(body, "Det.evaseg", &loaded).ok());
  const MaterializedView* lv = loaded.Find("Det@v");
  ASSERT_NE(lv, nullptr);
  EXPECT_EQ(lv->num_keys(), view->num_keys());
  EXPECT_EQ(lv->num_rows(), view->num_rows());
  loaded.SealAllSegments();
  EXPECT_EQ(loaded.seal_totals().segments_sealed.load(), 0);
  EXPECT_EQ(lv->SizeBytes(), view->SizeBytes());
  EXPECT_EQ(lv->CompressionStats().encoded_bytes,
            view->CompressionStats().encoded_bytes);
  EXPECT_EQ(lv->CompressionStats().raw_bytes,
            view->CompressionStats().raw_bytes);
  for (int64_t f = 0; f < 1500; ++f) {
    ASSERT_EQ(lv->TryGet({f, -1}), std::optional(rows_of(f))) << f;
  }

  ViewStore target;
  target.set_build_options(options);
  target.GetOrCreate("Det@v", det)->Put({5, -1}, {});
  ASSERT_TRUE(ParseSegmentBody(body, "Det.evaseg", &target).ok());
  const MaterializedView* tv = target.Find("Det@v");
  EXPECT_EQ(tv->num_keys(), view->num_keys());
  EXPECT_TRUE(tv->TryGet({5, -1})->empty());
  EXPECT_EQ(tv->TryGet({6, -1}), std::optional(rows_of(6)));
}

TEST_F(PersistenceTest, MissingDirectoryIsNotFound) {
  ViewStore store;
  EXPECT_EQ(LoadViewStore((dir_ / "nope").string(), &store).code(),
            StatusCode::kNotFound);
}

TEST_F(PersistenceTest, EngineSurvivesRestart) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 120;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 120 AND label = 'car' AND CarType(frame, bbox) = "
      "'Nissan';";
  // Session 1: run and persist.
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->Execute(sql).ok());
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // Session 2: load views; the same query needs zero UDF evaluations even
  // though the aggregated predicates were not persisted (the conditional
  // apply consults the view per tuple).
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
  }
}

TEST_F(PersistenceTest, LifecycleStateSurvivesEvictionAndRestart) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 120;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  engine::EngineOptions options;
  options.optimizer.mode = optimizer::ReuseMode::kEva;
  options.segment_frames = 32;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 120 AND label = 'car';";
  const std::string key = "FasterRCNNResNet50@pv";

  auto coverage_at = [&](const engine::EvaEngine& engine, int64_t frame) {
    return engine.udf_manager().Coverage(key).Evaluate(
        [&](const std::string&) { return Value(frame); });
  };

  std::vector<bool> covered_after_eviction(120, false);
  std::string reference;
  int64_t saved_last_query = -2;
  double first_udf_ms = 0;
  // Session 1: materialize, evict under a mid-session budget, persist.
  {
    auto er = vbench::MakeEngine(options, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    auto first = engine->Execute(sql);
    ASSERT_TRUE(first.ok());
    reference = first.value().batch.ToString(1 << 20);
    first_udf_ms = first.value().metrics.breakdown[CostCategory::kUdf];
    ASSERT_GT(first_udf_ms, 0);
    // Seal first: EnforceBudget charges sealed segments at encoded size,
    // so the 50% budget must be half of the sealed footprint.
    engine->views().SealAllSegments();
    engine->lifecycle()->set_budget_bytes(
        engine->views().TotalSizeBytes() * 0.5);
    auto evicted =
        engine->lifecycle()->EnforceBudget(engine->queries_executed());
    ASSERT_FALSE(evicted.empty());
    for (int64_t f = 0; f < 120; ++f) {
      covered_after_eviction[static_cast<size_t>(f)] =
          coverage_at(*engine, f);
    }
    ASSERT_NE(std::count(covered_after_eviction.begin(),
                         covered_after_eviction.end(), true),
              0);
    saved_last_query = engine->views().Find(key)->last_access_query();
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // Session 2: reload. The retracted coverage and segment stamps round-trip,
  // and re-running the query recomputes exactly the evicted gap.
  {
    auto er = vbench::MakeEngine(options, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    for (int64_t f = 0; f < 120; ++f) {
      EXPECT_EQ(coverage_at(*engine, f),
                covered_after_eviction[static_cast<size_t>(f)])
          << "frame " << f;
    }
    const MaterializedView* view = engine->views().Find(key);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->last_access_query(), saved_last_query);
    ASSERT_FALSE(view->Segments().empty());

    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().batch.ToString(1 << 20), reference);
    // Retained frames reuse (coverage or view probe); only the evicted
    // gap pays UDF time again.
    const double udf_ms = r.value().metrics.breakdown[CostCategory::kUdf];
    EXPECT_GT(udf_ms, 0);
    EXPECT_LT(udf_ms, first_udf_ms);
    EXPECT_GT(r.value().metrics.TotalReused(), 0);
  }
}

// Strips a v2 save directory down to the pre-manifest v1 layout: no
// MANIFEST, no generation tags in filenames, optionally no lifecycle file.
void MakeLegacyV1(const fs::path& dir, bool keep_lifecycle) {
  fs::remove(dir / "MANIFEST");
  std::vector<std::pair<fs::path, fs::path>> renames;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    const size_t gpos = name.rfind(".g");
    if (gpos == std::string::npos) continue;
    const size_t dot = name.find('.', gpos + 2);
    if (dot == std::string::npos) continue;
    const std::string v1 = name.substr(0, gpos) + name.substr(dot);
    if (v1 == "lifecycle.evastate" && !keep_lifecycle) {
      fs::remove(entry.path());
      continue;
    }
    renames.emplace_back(entry.path(), dir / v1);
  }
  for (const auto& [from, to] : renames) fs::rename(from, to);
}

TEST_F(PersistenceTest, LegacyV1DirectoryWithoutLifecycleLoads) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';";
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->Execute(sql).ok());
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // A directory written before the manifest/lifecycle subsystems existed:
  // bare <view>.evaview files and nothing else. It must still load (the
  // conditional apply consults the view per tuple without coverage).
  MakeLegacyV1(dir_, /*keep_lifecycle=*/false);
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    EXPECT_TRUE(engine->last_recovery().legacy);
    EXPECT_EQ(engine->last_recovery().generation, 0);
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
  }
}

TEST_F(PersistenceTest, LegacyV1DirectoryWithLifecycleLoads) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';";
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->Execute(sql).ok());
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  MakeLegacyV1(dir_, /*keep_lifecycle=*/true);
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    EXPECT_TRUE(engine->last_recovery().legacy);
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
  }
}

// Regression: a view dropped from the store used to leave its .evaview
// file behind, silently resurrecting on the next load. Committing the
// manifest now garbage-collects every file it does not list.
TEST_F(PersistenceTest, StaleFilesOfDroppedViewsDoNotResurrect) {
  Schema schema({{"x", DataType::kInt64}});
  {
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    store.GetOrCreate("B@v", schema)->Put({0, -1}, {{Value(int64_t{2})}});
    ASSERT_TRUE(SaveViewStore(store, dir_.string()).ok());
  }
  {
    // Second save no longer contains B — its file must be deleted.
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    ASSERT_TRUE(SaveViewStore(store, dir_.string()).ok());
  }
  int evaview_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 8 && name.substr(name.size() - 8) == ".evaview") {
      ++evaview_files;
      EXPECT_EQ(name.find("B@v"), std::string::npos) << name;
    }
  }
  EXPECT_EQ(evaview_files, 1);
  ViewStore loaded;
  ASSERT_TRUE(LoadViewStore(dir_.string(), &loaded).ok());
  EXPECT_NE(loaded.Find("A@v"), nullptr);
  EXPECT_EQ(loaded.Find("B@v"), nullptr) << "dropped view resurrected";
}

// A file someone (or an interrupted save) drops into the directory without
// a manifest entry is quarantined, never loaded.
TEST_F(PersistenceTest, UnmanifestedFileIsQuarantinedNotLoaded) {
  Schema schema({{"x", DataType::kInt64}});
  ViewStore store;
  store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
  ASSERT_TRUE(SaveViewStore(store, dir_.string()).ok());
  {
    std::ofstream out(dir_ / "Stray@v.evaview");
    out << "eva-view 1\nname Stray@v\nschema 1 x INT64\nkey 0 -1 1\n"
           "row I:7\n";
  }
  ViewStore loaded;
  RecoveryReport report;
  ASSERT_TRUE(
      LoadViewStoreEx(dir_.string(), &loaded, nullptr, &report).ok());
  EXPECT_EQ(loaded.Find("Stray@v"), nullptr);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].file, "Stray@v.evaview");
  EXPECT_EQ(report.quarantined[0].reason, "not in manifest");
  EXPECT_TRUE(fs::exists(dir_ / "Stray@v.evaview.quarantined"));
  EXPECT_FALSE(fs::exists(dir_ / "Stray@v.evaview"));
}

TEST_F(PersistenceTest, GenerationAdvancesAcrossSaves) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM pv CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 30 AND "
                            "label = 'car';")
                  .ok());
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
  EXPECT_EQ(engine->last_recovery().generation, 2);
  EXPECT_TRUE(engine->last_recovery().clean());
  EXPECT_FALSE(engine->last_recovery().legacy);
  // Only one generation's files survive the second commit's GC. Engine
  // saves write binary .evaseg codec files; count either form.
  int view_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    const bool is_view =
        (name.size() > 8 && name.substr(name.size() - 8) == ".evaview") ||
        (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg");
    if (is_view) {
      ++view_files;
      EXPECT_NE(name.find(".g2."), std::string::npos) << name;
    }
  }
  EXPECT_GE(view_files, 1);
}

}  // namespace
}  // namespace eva::storage
