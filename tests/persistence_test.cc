#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
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

  /// Saves `store` (with an empty coverage manager) as one generation.
  Status Save(const ViewStore& store) {
    udf::UdfManager manager;
    return SaveSession(store, manager, dir_.string());
  }

  /// Loads the save directory into `store` and returns what recovery saw.
  RecoveryReport Load(ViewStore* store) {
    udf::UdfManager manager;
    auto loaded = LoadSession(dir_.string(), store, &manager);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? loaded.MoveValue() : RecoveryReport{};
  }

  /// Basenames in the save directory ending in `suffix`.
  std::vector<std::string> FilesEndingIn(const std::string& suffix) const {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        out.push_back(name);
      }
    }
    return out;
  }

  fs::path dir_;
};

// A column whose cells mix types is stored as a raw Value lane; the save
// writes each cell as a type tag plus a binary payload, so every cell —
// NULL, both bools, Int64 vs Double, NaN, -0.0, strings with whitespace,
// '%', control bytes and the empty string — reads back exactly.
TEST_F(PersistenceTest, MixedTypeLaneRoundTrips) {
  const std::vector<Value> cells = {
      Value::Null(),        Value(true),
      Value(false),         Value(int64_t{-42}),
      Value(int64_t{1} << 62), Value(0.3125),
      Value(-0.0),          Value(std::numeric_limits<double>::quiet_NaN()),
      Value("Nissan"),      Value("two words\t50%\n"),
      Value(std::string("\x00\x7f", 2)), Value(""),
  };
  ViewStore store;
  MaterializedView* view =
      store.GetOrCreate("Mix@v", Schema({{"x", DataType::kString}}));
  for (size_t i = 0; i < cells.size(); ++i) {
    view->Put({static_cast<int64_t>(i), -1}, {{cells[i]}});
  }
  ASSERT_TRUE(Save(store).ok());
  ViewStore loaded;
  EXPECT_TRUE(Load(&loaded).clean());
  const MaterializedView* lv = loaded.Find("Mix@v");
  ASSERT_NE(lv, nullptr);
  for (size_t i = 0; i < cells.size(); ++i) {
    auto rows = lv->TryGet({static_cast<int64_t>(i), -1});
    ASSERT_TRUE(rows.has_value() && rows->size() == 1) << i;
    const Value& got = (*rows)[0][0];
    ASSERT_EQ(got.type(), cells[i].type()) << i;
    if (cells[i].type() == DataType::kDouble) {
      const double want = cells[i].AsDouble();
      const double have = got.AsDouble();
      EXPECT_EQ(std::memcmp(&want, &have, sizeof(double)), 0) << i;
    } else {
      EXPECT_TRUE(got == cells[i]) << i << ": " << got.ToString();
    }
  }
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

  ASSERT_TRUE(Save(store).ok());

  ViewStore loaded;
  EXPECT_TRUE(Load(&loaded).clean());
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
  ASSERT_TRUE(Save(store).ok());

  ViewStore target;
  target.GetOrCreate("CarType@v", schema)->Put({0, 0}, {{Value("Ford")}});
  target.GetOrCreate("CarType@v", schema)->Put({0, 1}, {{Value("BMW")}});
  EXPECT_TRUE(Load(&target).clean());
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
  udf::UdfManager manager;
  EXPECT_EQ(LoadSession((dir_ / "nope").string(), &store, &manager)
                .status()
                .code(),
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

// Strips a save directory down to the pre-manifest layout: no MANIFEST,
// no generation tags in filenames, optionally no lifecycle file.
void StripManifest(const fs::path& dir, bool keep_lifecycle) {
  fs::remove(dir / "MANIFEST");
  std::vector<std::pair<fs::path, fs::path>> renames;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    const size_t gpos = name.rfind(".g");
    if (gpos == std::string::npos) continue;
    const size_t dot = name.find('.', gpos + 2);
    if (dot == std::string::npos) continue;
    const std::string bare = name.substr(0, gpos) + name.substr(dot);
    if (bare == "lifecycle.evastate" && !keep_lifecycle) {
      fs::remove(entry.path());
      continue;
    }
    renames.emplace_back(entry.path(), dir / bare);
  }
  for (const auto& [from, to] : renames) fs::rename(from, to);
}

// A directory without a MANIFEST has nothing committed in it: recovery
// loads none of its files — view files and the fixed-name lifecycle file
// alike are quarantined as "not in manifest" — and the session recomputes
// with exactly the rows of a cold run. Pure underclaim.
TEST_F(PersistenceTest, DirectoryWithoutManifestLoadsNothing) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';";
  for (bool keep_lifecycle : {false, true}) {
    fs::remove_all(dir_);
    std::string reference;
    {
      auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
      ASSERT_TRUE(er.ok());
      auto engine = er.MoveValue();
      auto r = engine->Execute(sql);
      ASSERT_TRUE(r.ok());
      reference = r.value().batch.ToString(1 << 20);
      ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
    }
    StripManifest(dir_, keep_lifecycle);
    const size_t managed = FilesEndingIn(".evaseg").size() +
                           FilesEndingIn(".evastate").size();
    ASSERT_GE(managed, 1u);
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
    const RecoveryReport& report = engine->last_recovery();
    EXPECT_EQ(report.generation, 0);
    EXPECT_TRUE(engine->views().views().empty());
    ASSERT_EQ(report.quarantined.size(), managed) << report.Summary();
    for (const QuarantinedFile& q : report.quarantined) {
      EXPECT_EQ(q.reason, "not in manifest") << q.file;
    }
    EXPECT_TRUE(FilesEndingIn(".evaseg").empty());
    EXPECT_TRUE(FilesEndingIn(".evastate").empty());
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().batch.ToString(1 << 20), reference);
    EXPECT_GT(r.value().metrics.breakdown[CostCategory::kUdf], 0.0)
        << "keep_lifecycle=" << keep_lifecycle;
  }
}

// A manifest can list a view file the reader no longer understands — a
// text `.evaview` body from an older writer. Its size and CRC check out,
// so the parser is what rejects it: the file is quarantined, its view's
// coverage retracted, and the query recomputes that view's rows exactly.
TEST_F(PersistenceTest, ManifestListingAnUnreadableViewFileRetracts) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  const char* sql =
      "SELECT id, obj FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 60 AND label = 'car';";
  const std::string key = "FasterRCNNResNet50@pv";
  std::string reference;
  {
    auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
    ASSERT_TRUE(er.ok());
    auto engine = er.MoveValue();
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok());
    reference = r.value().batch.ToString(1 << 20);
    ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  }
  // Replace the detector's view file with an old-format text body and
  // re-point its manifest line (name, size, CRC) at it.
  std::string manifest;
  {
    std::ifstream in(dir_ / "MANIFEST");
    manifest.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const std::string text =
      "eva-view 1\nname " + key +
      "\nschema 1 obj INT64\nkey 0 -1 1\nrow I:0\n";
  const std::string old_file = key + ".g1.evaview";
  std::string rebuilt = "eva-manifest 1\ngeneration 1\n";
  std::istringstream lines(manifest);
  std::string line;
  int replaced = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("file " + key + ".g1.evaseg ", 0) == 0) {
      fs::remove(dir_ / (key + ".g1.evaseg"));
      rebuilt += StrFormat("file %s %zu %08x view %s\n", old_file.c_str(),
                           text.size(), Crc32(text), key.c_str());
      ++replaced;
    } else if (line.rfind("file ", 0) == 0) {
      rebuilt += line + "\n";
    }
  }
  ASSERT_EQ(replaced, 1) << manifest;
  rebuilt += StrFormat("checksum %08x\n", Crc32(rebuilt));
  {
    std::ofstream out(dir_ / old_file, std::ios::binary);
    out << text;
    std::ofstream m(dir_ / "MANIFEST", std::ios::binary | std::ios::trunc);
    m << rebuilt;
  }

  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine->LoadViews(dir_.string()).ok());
  const RecoveryReport& report = engine->last_recovery();
  EXPECT_EQ(report.generation, 1);
  ASSERT_EQ(report.quarantined.size(), 1u) << report.Summary();
  EXPECT_EQ(report.quarantined[0].file, old_file);
  EXPECT_EQ(report.quarantined[0].view_key, key);
  ASSERT_EQ(report.retracted.size(), 1u);
  EXPECT_EQ(report.retracted[0], key);
  EXPECT_EQ(engine->views().Find(key), nullptr);
  EXPECT_TRUE(fs::exists(dir_ / (old_file + ".quarantined")));
  auto r = engine->Execute(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().batch.ToString(1 << 20), reference);
  EXPECT_GT(r.value().metrics.breakdown[CostCategory::kUdf], 0.0);
}

// Regression: a view dropped from the store used to leave its view file
// behind, silently resurrecting on the next load. Committing the
// manifest now garbage-collects every file it does not list.
TEST_F(PersistenceTest, StaleFilesOfDroppedViewsDoNotResurrect) {
  Schema schema({{"x", DataType::kInt64}});
  {
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    store.GetOrCreate("B@v", schema)->Put({0, -1}, {{Value(int64_t{2})}});
    ASSERT_TRUE(Save(store).ok());
  }
  {
    // Second save no longer contains B — its file must be deleted.
    ViewStore store;
    store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
    ASSERT_TRUE(Save(store).ok());
  }
  const std::vector<std::string> view_files = FilesEndingIn(".evaseg");
  ASSERT_EQ(view_files.size(), 1u);
  EXPECT_EQ(view_files[0].find("B@v"), std::string::npos) << view_files[0];
  ViewStore loaded;
  EXPECT_TRUE(Load(&loaded).clean());
  EXPECT_NE(loaded.Find("A@v"), nullptr);
  EXPECT_EQ(loaded.Find("B@v"), nullptr) << "dropped view resurrected";
}

// A file someone (or an interrupted save) drops into the directory without
// a manifest entry is quarantined, never loaded.
TEST_F(PersistenceTest, UnmanifestedFileIsQuarantinedNotLoaded) {
  Schema schema({{"x", DataType::kInt64}});
  ViewStore store;
  store.GetOrCreate("A@v", schema)->Put({0, -1}, {{Value(int64_t{1})}});
  ASSERT_TRUE(Save(store).ok());
  {
    // A well-formed view file — only the manifest's absent claim on it
    // keeps it out.
    ViewStore stray;
    stray.GetOrCreate("Stray@v", schema)->Put({0, -1}, {{Value(int64_t{7})}});
    std::ofstream out(dir_ / "Stray@v.evaseg", std::ios::binary);
    out << SerializeViewSegments("Stray@v", *stray.Find("Stray@v"));
  }
  ViewStore loaded;
  RecoveryReport report;
  ASSERT_TRUE(
      LoadViewFiles(dir_.string(), &loaded, nullptr, &report).ok());
  EXPECT_EQ(loaded.Find("Stray@v"), nullptr);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].file, "Stray@v.evaseg");
  EXPECT_EQ(report.quarantined[0].reason, "not in manifest");
  EXPECT_TRUE(fs::exists(dir_ / "Stray@v.evaseg.quarantined"));
  EXPECT_FALSE(fs::exists(dir_ / "Stray@v.evaseg"));
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
  // Only one generation's files survive the second commit's GC.
  const std::vector<std::string> view_files = FilesEndingIn(".evaseg");
  EXPECT_GE(view_files.size(), 1u);
  for (const std::string& name : view_files) {
    EXPECT_NE(name.find(".g2."), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace eva::storage
