// Fuzz property tests for every parser that consumes untrusted bytes: the
// EVA-QL parser/lexer, the predicate codec, the view / manifest /
// lifecycle file readers and the WAL's segment_append decoder. The property is uniform — malformed input (random
// bytes, truncations, bit flips) yields a Status error or a successful
// parse, never a crash, throw, or sanitizer report. CI runs this binary
// under ASan/UBSan; the seeds are fixed so failures replay exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/eva_engine.h"
#include "parser/parser.h"
#include "storage/view_persistence.h"
#include "symbolic/predicate.h"
#include "symbolic/predicate_io.h"
#include "vbench/vbench.h"
#include "wal/wal_log.h"
#include "wal/wal_replay.h"

namespace eva {
namespace {

namespace stdfs = std::filesystem;

// Printable-ish alphabet biased toward the tokens our grammars use, plus
// raw control bytes so the lexer sees genuinely hostile input.
std::string RandomText(Rng& rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789 \t\n.,;:%#@*()<>=!'\"-+_";
  const size_t len = rng.NextBelow(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng.NextBool(0.05)) {
      out += static_cast<char>(rng.NextBelow(256));
    } else {
      out += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
    }
  }
  return out;
}

std::string Truncate(Rng& rng, const std::string& s) {
  if (s.empty()) return s;
  return s.substr(0, rng.NextBelow(s.size()));
}

std::string BitFlip(Rng& rng, const std::string& s) {
  if (s.empty()) return s;
  std::string out = s;
  const size_t flips = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < flips; ++i) {
    const size_t pos = rng.NextBelow(out.size());
    out[pos] = static_cast<char>(out[pos] ^ (1u << rng.NextBelow(8)));
  }
  return out;
}

std::string Mutate(Rng& rng, const std::string& s) {
  switch (rng.NextBelow(3)) {
    case 0:
      return Truncate(rng, s);
    case 1:
      return BitFlip(rng, s);
    default:
      return BitFlip(rng, Truncate(rng, s));
  }
}

TEST(ReaderFuzzTest, SqlParserNeverCrashes) {
  const std::vector<std::string> corpus = {
      "SELECT id, obj FROM v CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 300 AND label = 'car' LIMIT 5;",
      "SELECT id FROM v WHERE area > 0.25 AND CarType(frame, bbox) = "
      "'Nissan' AND id >= 10 AND id < 20;",
      "CREATE UDF Foo TYPE classifier ON FasterRCNNResNet50 COST 10;",
      "EXPLAIN ANALYZE SELECT id FROM v WHERE id < 5;",
      "DROP UDF Foo;",
      "SHOW UDFS;",
  };
  Rng rng(20260805);
  for (int i = 0; i < 4000; ++i) {
    std::string input = (i % 4 == 0)
                            ? RandomText(rng, 160)
                            : Mutate(rng, corpus[rng.NextBelow(corpus.size())]);
    auto r = parser::ParseStatement(input);  // must return, never throw
    (void)r;
  }
  // Regression: numeric literals that overflow int64/double used to throw
  // out of std::stoll/std::stod and abort the process.
  EXPECT_FALSE(
      parser::ParseStatement(
          "SELECT id FROM v WHERE id < 99999999999999999999999999;")
          .ok());
  EXPECT_FALSE(
      parser::ParseStatement("SELECT id FROM v LIMIT 99999999999999999999;")
          .ok());
  auto big_double =
      parser::ParseStatement("SELECT id FROM v WHERE area > 1.0e999999;");
  (void)big_double;  // overflow to an error, not a throw
}

TEST(ReaderFuzzTest, PredicateCodecNeverCrashes) {
  // Round-trip corpus: encode a few real predicates.
  std::vector<std::string> corpus;
  {
    symbolic::Conjunct c;
    c.Constrain("id", symbolic::DimConstraint::Numeric(
                          symbolic::DimKind::kInteger,
                          symbolic::Interval(symbolic::Bound::Closed(10),
                                             symbolic::Bound::Open(300))));
    c.Constrain("label", symbolic::DimConstraint::Categorical({"car"}, false));
    symbolic::Predicate p;
    p.AddConjunct(c);
    corpus.push_back(symbolic::EncodePredicate(p));
    corpus.push_back(symbolic::EncodePredicate(symbolic::Predicate::True()));
    corpus.push_back(symbolic::EncodePredicate(symbolic::Predicate::False()));
  }
  Rng rng(97);
  for (int i = 0; i < 4000; ++i) {
    std::string input = (i % 4 == 0)
                            ? RandomText(rng, 120)
                            : Mutate(rng, corpus[rng.NextBelow(corpus.size())]);
    auto r = symbolic::DecodePredicate(input);
    (void)r;
  }
  // Hostile counts and kinds must fail cleanly instead of allocating or
  // indexing past the enum.
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x 7 Ci 1 a").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 x -3 Ci 1 a").ok());
  EXPECT_FALSE(
      symbolic::DecodePredicate("P 1 C 1 x 2 Ci 999999999999999999 a").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 99999999 C 1").ok());
  // Regression: bad escapes in a dimension name or a categorical value
  // used to decode silently (%ZZ to a NUL byte, a truncated %2 kept
  // literally), accepting a corrupt name instead of failing.
  EXPECT_TRUE(symbolic::DecodePredicate("P 1 C 1 id 0 N inf inf 0").ok());
  EXPECT_TRUE(symbolic::DecodePredicate("P 1 C 1 label 2 Ci 1 c%41r").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 i%ZZd 0 N inf inf 0").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 id%2 0 N inf inf 0").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 label 2 Ci 1 c%G1r").ok());
  EXPECT_FALSE(symbolic::DecodePredicate("P 1 C 1 label 2 Ci 1 car%").ok());
}

class FileReaderFuzzTest : public ::testing::Test {
 protected:
  FileReaderFuzzTest() {
    dir_ = stdfs::temp_directory_path() /
           ("eva_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  ~FileReaderFuzzTest() override { stdfs::remove_all(dir_); }

  void WriteRaw(const std::string& name, const std::string& body) {
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }

  /// Writes `body` as the only file of a fresh generation-1 directory
  /// whose MANIFEST lists it with a matching size and CRC — so the load
  /// gets past the checksum shield and the parser alone must cope.
  /// `view` is the view name ("" lists the file as the lifecycle state).
  void WriteManifested(const std::string& name, const std::string& body,
                       const std::string& view) {
    WriteRaw(name, body);
    std::string manifest = "eva-manifest 1\ngeneration 1\n";
    manifest += StrFormat("file %s %zu %08x %s\n", name.c_str(), body.size(),
                          Crc32(body),
                          view.empty() ? "lifecycle -"
                                       : ("view " + view).c_str());
    manifest += StrFormat("checksum %08x\n", Crc32(manifest));
    std::ofstream out(dir_ / "MANIFEST", std::ios::binary);
    out << manifest;
  }

  stdfs::path dir_;
};

TEST_F(FileReaderFuzzTest, ViewFileReaderNeverCrashes) {
  // Corpus: a real saved view file.
  storage::ViewStore store;
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"score", DataType::kDouble}});
  storage::MaterializedView* view = store.GetOrCreate("Det@v", schema);
  view->Put({0, -1}, {{Value(int64_t{0}), Value("car"), Value(0.9)},
                      {Value(int64_t{1}), Value("bus pass"), Value(0.8)}});
  view->Put({1, -1}, {});
  udf::UdfManager manager;
  ASSERT_TRUE(storage::SaveSession(store, manager, dir_.string()).ok());
  std::string body;
  for (const auto& entry : stdfs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
      std::ifstream in(entry.path(), std::ios::binary);
      body.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
  }
  ASSERT_FALSE(body.empty());

  Rng rng(555);
  for (int i = 0; i < 300; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 400) : Mutate(rng, body);
    // The manifest vouches for the mutated bytes, so the reader has no
    // checksum shield and must survive on parsing alone. Bad files are
    // quarantined under their view's name, never fatal, never a crash.
    WriteManifested("Det@v.g1.evaseg", mutated, "Det@v");
    storage::ViewStore loaded;
    storage::RecoveryReport report;
    Status s =
        storage::LoadViewFiles(dir_.string(), &loaded, nullptr, &report);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!report.quarantined.empty()) {
      EXPECT_TRUE(loaded.views().empty());
      EXPECT_EQ(report.quarantined[0].view_key, "Det@v");
    }
  }
}

TEST_F(FileReaderFuzzTest, SegmentCodecReaderNeverCrashes) {
  // Corpus: a real binary .evaseg body over columns that exercise every
  // codec family — FOR ints, RLE/dict strings, bit-packed bools, doubles,
  // nulls, and a Bloom-filtered packed key index.
  storage::ViewStore store;
  store.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"flag", DataType::kBool},
                 {"score", DataType::kDouble}});
  storage::MaterializedView* view = store.GetOrCreate("Det@v", schema);
  for (int64_t f = 0; f < 300; ++f) {
    if (f % 17 == 0) {
      view->Put({f, -1}, {});  // presence-only keys
      continue;
    }
    view->Put({f, -1},
              {{Value(f % 6), Value(f % 3 == 0 ? "car" : "person"),
                Value(f % 2 == 0), Value(0.5 + static_cast<double>(f % 7))},
               {Value::Null(), Value("bus"), Value::Null(), Value(0.125)}});
  }
  const std::string body = storage::SerializeViewSegments("Det@v", *view);
  ASSERT_FALSE(body.empty());

  // Sanity: the untouched body round-trips into an identical store.
  {
    storage::ViewStore loaded;
    Status s = storage::ParseSegmentBody(body, "x.evaseg", &loaded);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    ASSERT_NE(lv, nullptr);
    EXPECT_EQ(lv->num_keys(), view->num_keys());
    EXPECT_EQ(lv->num_rows(), view->num_rows());
    for (int64_t f = 0; f < 300; ++f) {
      const std::optional<std::vector<Row>> a = view->TryGet({f, -1});
      const std::optional<std::vector<Row>> b = lv->TryGet({f, -1});
      ASSERT_EQ(a.has_value(), b.has_value()) << f;
      if (!a.has_value()) continue;
      ASSERT_EQ(a->size(), b->size()) << f;
      for (size_t r = 0; r < a->size(); ++r) {
        for (size_t c = 0; c < (*a)[r].size(); ++c) {
          EXPECT_EQ((*a)[r][c], (*b)[r][c]) << f;
        }
      }
    }
  }

  // Property: mutated bodies parse to an error (installing nothing) or
  // parse cleanly to rows that existed in the original view — never a
  // crash, never an invented row. Direct ParseSegmentBody has no CRC
  // shield, so this exercises the format validation itself.
  Rng rng(1234);
  for (int i = 0; i < 600; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 600) : Mutate(rng, body);
    storage::ViewStore loaded;
    Status s = storage::ParseSegmentBody(mutated, "fz.evaseg", &loaded);
    if (!s.ok()) {
      EXPECT_TRUE(loaded.views().empty());
      continue;
    }
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    if (lv == nullptr) continue;  // parsed under a mutated name
    for (const auto& [seg_id, seg] : lv->SealedSegments()) {
      for (size_t k = 0; k < seg->num_keys(); ++k) {
        // Bit flips inside key varints can invent keys; skip those.
        if (!view->TryGet(seg->key(k)).has_value()) continue;
        // A surviving key either matches the original payload or the
        // mutation stayed inside the value lanes — but lane sizes, dict
        // indexes, and run offsets were all revalidated, so reconstructed
        // rows always have the right shape.
        for (int32_t r = seg->row_begin_at(k); r < seg->row_begin_at(k + 1);
             ++r) {
          EXPECT_EQ(seg->RowAt(r).size(), schema.num_fields());
        }
      }
    }
  }

  // Through the manifested v2 load path the CRC catches what the parser
  // cannot: corrupt .evaseg files quarantine and retract, never load.
  {
    stdfs::remove_all(dir_);
    udf::UdfManager manager;
    ASSERT_TRUE(storage::SaveSession(store, manager, dir_.string()).ok());
    std::string seg_file;
    for (const auto& entry : stdfs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 7 && name.substr(name.size() - 7) == ".evaseg") {
        seg_file = name;
      }
    }
    ASSERT_FALSE(seg_file.empty());
    Rng crc_rng(4321);
    std::ifstream in(dir_ / seg_file, std::ios::binary);
    std::string good((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    for (int i = 0; i < 60; ++i) {
      std::string bad = BitFlip(crc_rng, good);
      if (bad == good) continue;
      {
        std::ofstream out(dir_ / seg_file, std::ios::binary);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
      }
      storage::ViewStore loaded;
      storage::RecoveryReport report;
      Status s =
          storage::LoadViewFiles(dir_.string(), &loaded, nullptr, &report);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(loaded.Find("Det@v"), nullptr);
      ASSERT_EQ(report.quarantined.size(), 1u);
      EXPECT_EQ(report.quarantined[0].view_key, "Det@v");
      // Restore for the next round (quarantine renamed the file away).
      std::error_code ec;
      stdfs::remove(dir_ / (seg_file + ".quarantined"), ec);
      std::ofstream out(dir_ / seg_file, std::ios::binary);
      out.write(good.data(), static_cast<std::streamsize>(good.size()));
    }
  }
}

/// Rows of every key of `view` in `keys`, in order (absent keys skipped),
/// as value rows — the comparison form for the WAL fuzz.
std::vector<std::pair<storage::ViewKey, std::vector<Row>>> RowsOf(
    const storage::MaterializedView& view,
    const std::vector<storage::ViewKey>& keys) {
  std::vector<std::pair<storage::ViewKey, std::vector<Row>>> out;
  for (const storage::ViewKey& k : keys) {
    if (auto rows = view.TryGet(k)) out.emplace_back(k, std::move(*rows));
  }
  return out;
}

TEST_F(FileReaderFuzzTest, WalAppendDecoderNeverCrashes) {
  // Corpus: a view admission plus one segment_append record whose lanes
  // cover every plain lane kind — Int64, dictionary strings, Bool and
  // Double with NULLs, a mixed-type (raw Value) lane, an all-NULL column —
  // and presence-only keys.
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"flag", DataType::kBool},
                 {"score", DataType::kDouble},
                 {"mixed", DataType::kString},
                 {"none", DataType::kInt64}});
  storage::ViewStore store;
  storage::MaterializedView* view = store.GetOrCreate("Det@v", schema);
  std::vector<storage::ViewKey> keys;
  for (int64_t f = 0; f < 40; ++f) {
    keys.push_back({f, -1});
    if (f % 9 == 0) {
      view->Put({f, -1}, {});
      continue;
    }
    view->Put({f, -1},
              {{Value(f % 6), Value(f % 3 == 0 ? "car" : "bus lane"),
                Value(f % 2 == 0), Value(0.5 + static_cast<double>(f % 7)),
                f % 4 == 0 ? Value(f) : Value("m"), Value::Null()},
               {Value::Null(), Value("car"), Value::Null(), Value(-0.0),
                Value(true), Value::Null()}});
  }
  storage::MaterializedView::KeyedRows rows;
  view->CopyRows(keys, &rows);
  ASSERT_EQ(rows.keys.size(), keys.size());
  const auto original = RowsOf(*view, keys);
  const std::string admission =
      wal::EncodeFrame(wal::ViewAdmissionRecord("Det@v", schema));
  const std::string payload =
      wal::SegmentAppendRecord("Det@v", 7, rows).payload;
  const std::string path = (dir_ / "wal.g1.evalog").string();

  // Replays `log` into a fresh store and returns the status; `loaded`
  // receives what the replay installed.
  auto replay = [&](const std::string& log, storage::ViewStore* loaded) {
    WriteRaw("wal.g1.evalog", log);
    catalog::Catalog catalog;
    udf::UdfManager manager;
    return wal::ReplayWal(path, &catalog, loaded, &manager,
                          symbolic::SymbolicBudget{})
        .status();
  };
  auto frame = [](const std::string& body) {
    return wal::EncodeFrame({wal::WalRecordType::kSegmentAppend, body});
  };

  // Sanity: the untouched record installs exactly the original rows.
  {
    storage::ViewStore loaded;
    ASSERT_TRUE(replay(admission + frame(payload), &loaded).ok());
    ASSERT_NE(loaded.Find("Det@v"), nullptr);
    EXPECT_EQ(RowsOf(*loaded.Find("Det@v"), keys), original);
  }

  // Mutated payloads re-framed with a valid CRC: the decoder alone stands
  // between them and the store. Replay either fails having installed
  // nothing, or installs the decoded record whole — every key with all of
  // its rows, each of the schema's width. (A flipped bit inside a value
  // lane decodes to another value of the same type; the frame CRC is what
  // catches that, below.)
  Rng rng(2468);
  int rejected = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 600) : Mutate(rng, payload);
    storage::ViewStore loaded;
    Status s = replay(admission + frame(mutated), &loaded);
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    ASSERT_NE(lv, nullptr);  // the admission record always applies
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(lv->num_keys(), 0) << "a rejected record installed keys";
      continue;
    }
    storage::ByteReader r(mutated);
    std::string name;
    int64_t qid;
    storage::MaterializedView::KeyedRows decoded;
    ASSERT_TRUE(r.Str(&name) && r.Zigzag(&qid) &&
                storage::ReadKeyedRows(&r, schema.num_fields(), &decoded));
    std::vector<storage::ViewKey> decoded_keys;
    for (const auto& k : decoded.keys) decoded_keys.push_back(k.key);
    storage::MaterializedView::KeyedRows installed;
    lv->CopyRows(decoded_keys, &installed);
    ASSERT_EQ(installed.keys.size(), decoded_keys.size());
    for (size_t k = 0; k < decoded.keys.size(); ++k) {
      const auto& want = decoded.keys[k];
      if (std::find_if(decoded.keys.begin(), decoded.keys.begin() + k,
                       [&](const auto& e) { return e.key == want.key; }) !=
          decoded.keys.begin() + k) {
        continue;  // a repeated key: the first occurrence was installed
      }
      ASSERT_EQ(installed.keys[k].end - installed.keys[k].begin,
                want.end - want.begin);
      for (uint32_t j = 0; j < want.end - want.begin; ++j) {
        for (size_t c = 0; c < schema.num_fields(); ++c) {
          const Value a = decoded.cols[c].At(want.begin + j);
          const Value b = installed.cols[c].At(installed.keys[k].begin + j);
          EXPECT_EQ(a.ToString(), b.ToString());
        }
      }
    }
  }
  EXPECT_GT(rejected, 200) << "the decoder accepted too much garbage";

  // The same mutations without re-framing: the frame CRC cuts every one
  // of them off as a torn tail, so no row the original did not hold is
  // ever installed.
  const std::string good_log = admission + frame(payload);
  Rng crc_rng(8642);
  for (int i = 0; i < 60; ++i) {
    std::string bad = good_log;
    const std::string flipped =
        BitFlip(crc_rng, good_log.substr(admission.size()));
    bad.replace(admission.size(), std::string::npos, flipped);
    storage::ViewStore loaded;
    Status s = replay(bad, &loaded);
    EXPECT_TRUE(s.ok()) << s.ToString();
    const storage::MaterializedView* lv = loaded.Find("Det@v");
    ASSERT_NE(lv, nullptr);
    for (const auto& [key, got] : RowsOf(*lv, keys)) {
      EXPECT_NE(std::find(original.begin(), original.end(),
                          std::make_pair(key, got)),
                original.end());
    }
    if (bad != good_log) {
      EXPECT_EQ(lv->num_keys(), 0);
    }
  }

  // A text segment_append payload from the old writer (percent-escaped
  // tokens, one `row` line of type-prefixed cells per row) is rejected.
  {
    storage::ViewStore loaded;
    Status s = replay(
        admission + frame("view Det@v 7\nkey 1 -1 1\n"
                          "row I:1 S:bus%20lane B:0 D:1.5 S:m N\n"),
        &loaded);
    EXPECT_FALSE(s.ok());
    ASSERT_NE(loaded.Find("Det@v"), nullptr);
    EXPECT_EQ(loaded.Find("Det@v")->num_keys(), 0);
  }
}

TEST_F(FileReaderFuzzTest, ManifestReaderNeverCrashes) {
  Rng rng(777);
  const std::string valid =
      "eva-manifest 1\ngeneration 3\n"
      "file Det@v.g3.evaseg 120 0a1b2c3d view Det@v\n"
      "file lifecycle.g3.evastate 64 11223344 lifecycle -\n";
  for (int i = 0; i < 300; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 200) : Mutate(rng, valid);
    WriteRaw("MANIFEST", mutated);
    storage::ViewStore loaded;
    storage::RecoveryReport report;
    Status s =
        storage::LoadViewFiles(dir_.string(), &loaded, nullptr, &report);
    EXPECT_TRUE(s.ok()) << s.ToString();
    // A mutated manifest is (almost) always a checksum failure; nothing
    // may load off the back of one.
    if (report.manifest_corrupt) {
      EXPECT_TRUE(loaded.views().empty());
    }
  }
}

TEST_F(FileReaderFuzzTest, LifecycleReaderNeverCrashes) {
  // Corpus: the lifecycle file of a real session save.
  catalog::VideoInfo video;
  video.name = "fz";
  video.num_frames = 60;
  video.mean_objects_per_frame = 6;
  video.seed = 3;
  auto er = vbench::MakeEngine(optimizer::ReuseMode::kEva, video);
  ASSERT_TRUE(er.ok());
  auto engine = er.MoveValue();
  ASSERT_TRUE(engine
                  ->Execute("SELECT id, obj FROM fz CROSS APPLY "
                            "FasterRCNNResNet50(frame) WHERE id < 60 AND "
                            "label = 'car';")
                  .ok());
  stdfs::create_directories(dir_);
  ASSERT_TRUE(engine->SaveViews(dir_.string()).ok());
  std::string body;
  for (const auto& entry : stdfs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 9 && name.substr(name.size() - 9) == ".evastate") {
      std::ifstream in(entry.path(), std::ios::binary);
      body.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
  }
  ASSERT_FALSE(body.empty());

  Rng rng(999);
  for (int i = 0; i < 300; ++i) {
    const std::string mutated =
        (i % 5 == 0) ? RandomText(rng, 400) : Mutate(rng, body);
    // Manifested with a matching CRC: the parser alone must cope.
    WriteManifested("lifecycle.g1.evastate", mutated, "");
    storage::ViewStore store;
    udf::UdfManager manager;
    storage::RecoveryReport report;
    Status s = storage::LoadLifecycleStateEx(dir_.string(), &store,
                                             &manager, nullptr, &report);
    (void)s;  // error or OK — either way, no crash
  }
}

}  // namespace
}  // namespace eva
