// Columnar execution chunks (src/exec/chunk.h): operators exchange typed
// column vectors and rows exist only in the query result, so every step
// between must be exact.
//
//  1. Chunk <-> row round trips keep every cell: Int64 vs Double, NULL,
//     NaN payloads, -0.0, strings, bools and mixed-type columns — through
//     filtering, gathering and concatenation too.
//  2. ViewJoin's hit gather (ColumnBuilder::AppendRange over a probe's
//     segments) reads exactly what TryGet returns, from sealed segments
//     under every codec and from open parts.
//  3. A batch Put from chunk columns builds the same lanes and encoded
//     bytes as Put from rows.
//  4. CondApply (detector and classifier) emits the same rows, simulated
//     charges and metrics at 1 and 4 worker threads.
//  5. STORE under a ViewJoin verdict (hits skipped, misses put without
//     presence lookups) stores the same keys, ticks and lanes as a
//     presence-checked Put, and an Apply-only STORE still skips keys
//     already present.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/chunk.h"
#include "exec/operators.h"
#include "runtime/thread_pool.h"
#include "storage/view_store.h"
#include "udf/udf_runtime.h"
#include "vision/synthetic_video.h"

namespace eva::exec {
namespace {

using storage::ColumnVec;
using storage::MaterializedView;
using storage::ProbeResult;
using storage::ProbeStatus;
using storage::ViewKey;

// Deterministic 64-bit LCG.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() % 1000003) / 1000003.0; }

 private:
  uint64_t state_;
};

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

// Same type and the same payload bit for bit (Value::operator== would let
// Int64 1 equal Double 1.0, -0.0 equal 0.0, and NaN equal nothing).
::testing::AssertionResult Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << DataTypeName(a.type()) << " vs " << DataTypeName(b.type());
  }
  if (a.type() == DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    if (std::memcmp(&x, &y, 8) != 0) {
      return ::testing::AssertionFailure() << x << " vs " << y << " (bits)";
    }
    return ::testing::AssertionSuccess();
  }
  if (!a.is_null() && a != b) {
    return ::testing::AssertionFailure()
           << a.ToString() << " vs " << b.ToString();
  }
  return ::testing::AssertionSuccess();
}

void ExpectRowsIdentical(const std::vector<Row>& got,
                         const std::vector<Row>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(Identical(got[r][c], want[r][c]))
          << what << " row " << r << " col " << c;
    }
  }
}

std::vector<Row> ChunkRows(const Chunk& chunk) {
  Batch batch(chunk.schema());
  chunk.AppendTo(&batch);
  return batch.rows();
}

// ---------------------------------------------------------------------------
// 1. Chunk <-> rows
// ---------------------------------------------------------------------------

Schema MixedSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"mixed", DataType::kDouble},
                 {"late", DataType::kInt64},
                 {"nulls", DataType::kString}});
}

std::vector<Row> MixedRows() {
  const double nan_payload = DoubleFromBits(0x7ff8000000000123ULL);
  const double neg_nan = DoubleFromBits(0xfff0000000000042ULL);
  std::vector<Row> rows;
  for (int64_t r = 0; r < 300; ++r) {
    Row row;
    row.push_back(r % 7 == 0 ? Value::Null() : Value(r * 1000003 - 77));
    switch (r % 6) {
      case 0:
        row.push_back(Value(-0.0));
        break;
      case 1:
        row.push_back(Value(nan_payload));
        break;
      case 2:
        row.push_back(Value(neg_nan));
        break;
      case 3:
        row.push_back(Value::Null());
        break;
      case 4:
        row.push_back(Value(INFINITY));
        break;
      default:
        row.push_back(Value(0.1 * static_cast<double>(r)));
    }
    row.push_back(r % 5 == 0 ? Value::Null()
                             : Value(std::string(r % 3 == 0 ? "car" : "bus") +
                                     (r % 11 == 0 ? "_long_label_xyz" : "")));
    row.push_back(r % 4 == 0 ? Value::Null() : Value(r % 3 == 0));
    // Int64 1 and Double 1.0 side by side: a mixed column stays raw.
    switch (r % 4) {
      case 0:
        row.push_back(Value(int64_t{1}));
        break;
      case 1:
        row.push_back(Value(1.0));
        break;
      case 2:
        row.push_back(Value("one"));
        break;
      default:
        row.push_back(Value(true));
    }
    // NULL prefix, then typed: the all-null start is only counted.
    row.push_back(r < 150 ? Value::Null() : Value(r));
    row.push_back(Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(ChunkTest, RowsRoundTripExactly) {
  const std::vector<Row> rows = MixedRows();
  Chunk chunk = Chunk::FromBatch(Batch(MixedSchema(), rows));
  ASSERT_EQ(chunk.num_rows(), rows.size());
  EXPECT_EQ(chunk.col(0).lane().enc(), ColumnVec::Enc::kInt64);
  EXPECT_EQ(chunk.col(1).lane().enc(), ColumnVec::Enc::kDouble);
  EXPECT_EQ(chunk.col(2).lane().enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(chunk.col(3).lane().enc(), ColumnVec::Enc::kBool);
  EXPECT_EQ(chunk.col(4).lane().enc(), ColumnVec::Enc::kValue);
  EXPECT_TRUE(chunk.col(6).all_null());
  ExpectRowsIdentical(ChunkRows(chunk), rows, "round trip");
  for (size_t r = 0; r < rows.size(); ++r) {
    ExpectRowsIdentical({chunk.RowAt(r)}, {rows[r]}, "RowAt");
  }
}

TEST(ChunkTest, FilterGatherAndConcatenateStayExact) {
  const std::vector<Row> rows = MixedRows();
  const Chunk chunk = Chunk::FromBatch(Batch(MixedSchema(), rows));

  std::vector<uint8_t> keep(rows.size());
  std::vector<Row> kept;
  for (size_t r = 0; r < rows.size(); ++r) {
    keep[r] = (r % 3 != 1) ? 1 : 0;
    if (keep[r] != 0) kept.push_back(rows[r]);
  }
  Chunk filtered = chunk;
  filtered.Filter(keep);
  ExpectRowsIdentical(ChunkRows(filtered), kept, "filter");

  // Gather: reversed with duplicates, as a 1:n operator expands rows.
  std::vector<uint32_t> src;
  std::vector<Row> gathered;
  for (size_t r = rows.size(); r-- > 0;) {
    const size_t copies = r % 3;
    for (size_t k = 0; k < copies; ++k) {
      src.push_back(static_cast<uint32_t>(r));
      gathered.push_back(rows[r]);
    }
  }
  std::vector<ColumnBuilder> cols;
  for (const ColumnBuilder& c : chunk.cols()) {
    cols.push_back(ColumnBuilder::Gather(c, src));
  }
  ExpectRowsIdentical(
      ChunkRows(Chunk(MixedSchema(), std::move(cols), src.size())), gathered,
      "gather");

  // Concatenation of uneven slices (morsel parts) onto each other.
  std::vector<ColumnBuilder> concat(chunk.num_cols());
  std::vector<std::vector<int32_t>> remaps(chunk.num_cols());
  for (size_t begin = 0; begin < rows.size(); begin += 37) {
    const size_t count = std::min<size_t>(37, rows.size() - begin);
    for (size_t c = 0; c < chunk.num_cols(); ++c) {
      remaps[c].clear();
      concat[c].AppendRange(chunk.col(c), begin, count, &remaps[c]);
    }
  }
  ExpectRowsIdentical(
      ChunkRows(Chunk(MixedSchema(), std::move(concat), rows.size())), rows,
      "concatenate");
}

// ---------------------------------------------------------------------------
// 2. Hit gather from sealed (every codec) and open segment parts
// ---------------------------------------------------------------------------

Schema CodecSchema() {
  return Schema({{"for_i", DataType::kInt64},
                 {"rle_i", DataType::kInt64},
                 {"plain_i", DataType::kInt64},
                 {"dict_d", DataType::kDouble},
                 {"exp_d", DataType::kDouble},
                 {"bits_b", DataType::kBool},
                 {"label", DataType::kString},
                 {"mixed", DataType::kInt64}});
}

// Rows of one key, shaped so that each column picks its codec at seal.
std::vector<Row> CodecRows(int64_t frame, Lcg& rng) {
  std::vector<Row> rows;
  const int64_t n = frame % 5 == 4 ? 0 : 1 + frame % 4;  // some keys empty
  static const double kDict[] = {0.125, 7.75, -3.5};
  static const char* kLabels[] = {"car", "bus", "van", "truck", "bike"};
  for (int64_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(1000 + rng.Below(200)));                  // FOR
    row.push_back(Value(int64_t{frame / 40} * 1000000000000));  // RLE
    row.push_back(Value(static_cast<int64_t>(rng.Next() << 11)));  // plain
    row.push_back(Value(kDict[rng.Below(3)]));                    // dictnum
    row.push_back(Value(0.01 + rng.Unit()));                       // exppack
    row.push_back(Value(rng.Below(2) == 1));                       // bitpack
    row.push_back(i == 1 ? Value::Null()
                         : Value(kLabels[rng.Below(5)]));  // bitpack
    row.push_back(rng.Below(3) == 0 ? Value(2.5) : Value(rng.Below(9)));
    rows.push_back(std::move(row));
  }
  return rows;
}

// Gathers every hit of `res` lane to lane, the way ViewJoin does, and
// checks it against TryGet.
void ExpectGatherMatchesTryGet(const MaterializedView& view,
                               const std::vector<ViewKey>& keys,
                               const ProbeResult& res, const char* what) {
  ASSERT_EQ(res.outcomes.size(), keys.size());
  const size_t width = view.value_schema().num_fields();
  std::vector<ColumnBuilder> cols(width);
  std::vector<std::vector<int32_t>> remaps(res.segments.size() * width);
  std::vector<Row> want;
  for (size_t k = 0; k < keys.size(); ++k) {
    const storage::ProbeOutcome& oc = res.outcomes[k];
    std::optional<std::vector<Row>> stored = view.TryGet(keys[k]);
    ASSERT_EQ(oc.status != ProbeStatus::kMiss, stored.has_value()) << what;
    if (oc.status != ProbeStatus::kHit) continue;
    for (size_t c = 0; c < width; ++c) {
      cols[c].AppendRange(
          res.segment(oc).cols[c], static_cast<size_t>(oc.rows_begin),
          static_cast<size_t>(oc.rows_count),
          &remaps[static_cast<size_t>(oc.seg_index) * width + c]);
    }
    want.insert(want.end(), stored->begin(), stored->end());
  }
  ExpectRowsIdentical(
      ChunkRows(Chunk(view.value_schema(), std::move(cols), want.size())),
      want, what);
}

TEST(ChunkTest, HitGatherMatchesTryGetUnderEveryCodecAndOpenParts) {
  MaterializedView view("codecs@v", CodecSchema());
  view.set_segment_frames(64);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  Lcg rng(0xc0dec);
  // Keys land out of order and with gaps so seals merge sealed and open
  // parts; segments past frame 256 stay open.
  std::vector<int64_t> frames;
  for (int64_t f = 0; f < 320; ++f) {
    if (f % 9 != 3) frames.push_back((f * 37) % 320);
  }
  for (int64_t f : frames) {
    if (f < 256) view.Put(ViewKey{f, -1}, CodecRows(f, rng));
  }
  view.SealAllSegments();
  for (int64_t f : frames) {
    if (f >= 256) view.Put(ViewKey{f, -1}, CodecRows(f, rng));
  }
  std::vector<ViewKey> keys;
  for (int64_t f = 0; f < 330; ++f) keys.push_back(ViewKey{f, -1});

  ProbeResult res;
  view.ProbeBatch(keys, nullptr, &res);
  ExpectGatherMatchesTryGet(view, keys, res, "sealed + open");

  // Every codec is exercised by some sealed column.
  std::set<ColumnVec::Codec> seen;
  for (const auto& [id, seg] : view.SealedSegments()) {
    for (const ColumnVec& col : seg->cols) seen.insert(col.codec());
  }
  for (ColumnVec::Codec c :
       {ColumnVec::Codec::kPlain, ColumnVec::Codec::kFor,
        ColumnVec::Codec::kBitPack, ColumnVec::Codec::kRle,
        ColumnVec::Codec::kDictNum, ColumnVec::Codec::kExpPack}) {
    EXPECT_TRUE(seen.count(c) > 0) << ColumnVec::CodecName(c);
  }
  // SealedSegments sealed the open parts too; probes read the same cells.
  view.ProbeBatch(keys, nullptr, &res);
  ExpectGatherMatchesTryGet(view, keys, res, "all sealed");
  // A repeated key right behind the search cursor is still found.
  std::vector<ViewKey> twice;
  for (const ViewKey& k : keys) {
    twice.push_back(k);
    twice.push_back(k);
  }
  view.ProbeBatch(twice, nullptr, &res);
  ExpectGatherMatchesTryGet(view, twice, res, "repeated keys");
}

// ---------------------------------------------------------------------------
// 3. STORE from a chunk == Put from rows
// ---------------------------------------------------------------------------

TEST(ChunkTest, PutFromChunkColumnsMatchesPutFromRows) {
  const Schema schema = CodecSchema();
  const storage::SegmentBuildOptions options{true, 10};
  MaterializedView from_rows("rows@v", schema);
  MaterializedView from_chunk("chunk@v", schema);
  for (MaterializedView* v : {&from_rows, &from_chunk}) {
    v->set_segment_frames(64);
    v->set_build_options(options);
  }
  // The chunk carries two leading columns (id and a label) before the
  // value columns, as an operator chunk does.
  Schema chunk_schema({{"id", DataType::kInt64}, {"tag", DataType::kString}});
  for (const Field& f : schema.fields()) chunk_schema.AddField(f);

  Lcg rng(0x5704e);
  uint64_t tick = 1;
  for (int64_t base = 0; base < 300; base += 50) {
    Chunk chunk(chunk_schema);
    std::vector<MaterializedView::KeyRows> keys;
    std::vector<uint32_t> sel;
    std::vector<std::vector<Row>> per_key;
    for (int64_t i = 0; i < 60; ++i) {
      // Overlapping ranges: the first 10 keys of every batch re-put.
      const int64_t f = base + (i * 7) % 60;
      std::vector<Row> rows = CodecRows(f, rng);
      const uint32_t at = static_cast<uint32_t>(sel.size());
      for (const Row& row : rows) {
        Row wide = {Value(f), Value("x")};
        wide.insert(wide.end(), row.begin(), row.end());
        sel.push_back(static_cast<uint32_t>(chunk.num_rows()));
        chunk.AppendRow(wide);
      }
      keys.push_back({ViewKey{f, -1}, at, static_cast<uint32_t>(sel.size())});
      per_key.push_back(std::move(rows));
    }
    std::vector<uint8_t> inserted;
    const int64_t stored = from_chunk.Put(
        keys, sel, std::span<const ColumnBuilder>(chunk.cols()).subspan(2),
        tick, 7, &inserted);
    int64_t stored_rows = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const bool put = from_rows.Put(keys[i].key, per_key[i],
                                     tick + static_cast<uint64_t>(stored_rows),
                                     7);
      EXPECT_EQ(put, inserted[i] != 0) << keys[i].key.frame;
      stored_rows += put ? 1 : 0;
    }
    EXPECT_EQ(stored, stored_rows);
    tick += static_cast<uint64_t>(stored);
    EXPECT_EQ(from_rows.SizeBytes(), from_chunk.SizeBytes());
  }
  EXPECT_EQ(from_rows.num_keys(), from_chunk.num_keys());
  EXPECT_EQ(from_rows.num_rows(), from_chunk.num_rows());

  auto a = from_rows.SealedSegments();
  auto b = from_chunk.SealedSegments();
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    const storage::ColumnarSegment& x = *a[s].second;
    const storage::ColumnarSegment& y = *b[s].second;
    EXPECT_EQ(a[s].first, b[s].first);
    EXPECT_EQ(x.encoded_bytes, y.encoded_bytes) << "segment " << s;
    EXPECT_EQ(x.raw_bytes, y.raw_bytes) << "segment " << s;
    ASSERT_EQ(x.num_keys(), y.num_keys());
    for (size_t k = 0; k < x.num_keys(); ++k) {
      EXPECT_EQ(x.key(k), y.key(k));
      EXPECT_EQ(x.row_begin_at(k), y.row_begin_at(k));
    }
    ASSERT_EQ(x.cols.size(), y.cols.size());
    for (size_t c = 0; c < x.cols.size(); ++c) {
      EXPECT_EQ(x.cols[c].enc(), y.cols[c].enc()) << "col " << c;
      EXPECT_EQ(x.cols[c].codec(), y.cols[c].codec()) << "col " << c;
      EXPECT_EQ(x.cols[c].EncodedBytes(), y.cols[c].EncodedBytes());
      for (int64_t r = 0; r < x.num_rows(); ++r) {
        EXPECT_TRUE(Identical(x.cols[c].At(static_cast<size_t>(r)),
                              y.cols[c].At(static_cast<size_t>(r))));
      }
    }
  }
  std::vector<storage::SegmentStats> sa = from_rows.Segments();
  std::vector<storage::SegmentStats> sb = from_chunk.Segments();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t s = 0; s < sa.size(); ++s) {
    EXPECT_EQ(sa[s].bytes, sb[s].bytes);
    EXPECT_EQ(sa[s].info.created_tick, sb[s].info.created_tick);
    EXPECT_EQ(sa[s].info.last_access_tick, sb[s].info.last_access_tick);
  }
}

// What a view holds: each segment's key/row counts and access stamps, the
// encoded bytes of its sealed form, and every stored row prefixed by its
// key (a key with no rows reads as its key alone).
struct ViewImage {
  std::vector<std::tuple<int64_t, int64_t, int64_t, uint64_t, uint64_t>>
      stamps;
  std::vector<int64_t> encoded;
  std::vector<Row> rows;
};

ViewImage ImageOf(const MaterializedView& view) {
  ViewImage img;
  for (const storage::SegmentStats& st : view.Segments()) {
    img.stamps.emplace_back(st.segment_id, st.info.keys, st.info.rows,
                            st.info.created_tick, st.info.last_access_tick);
  }
  for (const auto& [id, seg] : view.SealedSegments()) {
    img.encoded.push_back(seg->encoded_bytes);
    for (size_t k = 0; k < seg->num_keys(); ++k) {
      const Row key = {Value(seg->key_frame(k)), Value(seg->key_obj(k))};
      if (seg->row_begin_at(k) == seg->row_begin_at(k + 1)) {
        img.rows.push_back(key);
      }
      for (int32_t r = seg->row_begin_at(k); r < seg->row_begin_at(k + 1);
           ++r) {
        Row row = key;
        const Row cells = seg->RowAt(r);
        row.insert(row.end(), cells.begin(), cells.end());
        img.rows.push_back(std::move(row));
      }
    }
  }
  return img;
}

void ExpectSameImage(const ViewImage& got, const ViewImage& want,
                     const std::string& what) {
  EXPECT_EQ(got.stamps, want.stamps) << what;
  EXPECT_EQ(got.encoded, want.encoded) << what;
  ExpectRowsIdentical(got.rows, want.rows, what);
}

TEST(ChunkTest, VerdictPutMatchesPresenceCheckedPut) {
  const Schema schema = CodecSchema();
  MaterializedView checked("checked@v", schema);
  MaterializedView verdict("verdict@v", schema);
  Lcg rng(0x57043);
  // Earlier queries stored every third frame; the first two segments are
  // sealed, so hits land in sealed and open parts.
  std::map<int64_t, std::vector<Row>> earlier;
  for (int64_t f = 0; f < 200; f += 3) earlier[f] = CodecRows(f, rng);
  for (MaterializedView* v : {&checked, &verdict}) {
    v->set_segment_frames(64);
    v->set_build_options({true, 10});
    uint64_t tick = 1;
    for (const auto& [f, rows] : earlier) {
      v->Put(ViewKey{f, -1}, rows, tick++, 1);
      if (f == 126) v->SealAllSegments();
    }
  }
  // One STORE chunk: frames 0..199, then three keys behind the cursor —
  // a computed miss inserted above (151) and one in a segment sealed
  // since (7), with other rows, where the first Put must win, and a hit.
  std::vector<int64_t> frames;
  for (int64_t f = 0; f < 200; ++f) frames.push_back(f);
  frames.insert(frames.end(), {151, 150, 7});
  Chunk chunk(schema);
  std::vector<MaterializedView::KeyRows> all;
  std::vector<MaterializedView::KeyRows> computed;  // ViewJoin's misses
  std::vector<uint32_t> sel;
  for (int64_t f : frames) {
    const uint32_t at = static_cast<uint32_t>(sel.size());
    for (const Row& row : CodecRows(f, rng)) {
      sel.push_back(static_cast<uint32_t>(chunk.num_rows()));
      chunk.AppendRow(row);
    }
    all.push_back({ViewKey{f, -1}, at, static_cast<uint32_t>(sel.size())});
    if (earlier.count(f) == 0) computed.push_back(all.back());
  }
  const uint64_t first_tick = earlier.size() + 1;
  std::vector<uint8_t> in_checked, in_verdict;
  const int64_t a =
      checked.Put(all, sel, chunk.cols(), first_tick, 2, &in_checked);
  const int64_t b = verdict.Put(computed, sel, chunk.cols(), first_tick, 2,
                                &in_verdict, /*absent=*/true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, 200 - static_cast<int64_t>(earlier.size()));
  std::vector<ViewKey> keys_checked, keys_verdict;
  for (size_t i = 0; i < all.size(); ++i) {
    if (in_checked[i] != 0) keys_checked.push_back(all[i].key);
  }
  for (size_t i = 0; i < computed.size(); ++i) {
    if (in_verdict[i] != 0) keys_verdict.push_back(computed[i].key);
  }
  EXPECT_EQ(keys_verdict, keys_checked);
  ExpectSameImage(ImageOf(verdict), ImageOf(checked), "verdict vs checked");
}

// ---------------------------------------------------------------------------
// 4. CondApply at 1 and 4 worker threads
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<Row> rows;
  SimClock::Snapshot clock;
  std::map<std::string, int64_t> invocations;
  std::map<std::string, int64_t> reused;
  int64_t view_keys = 0;
  ViewImage det_view;
  ViewImage cls_view;
};

// How the last, full-range query runs: EVA's ViewJoin + CondApply + STORE
// (STORE follows the join's verdict), the same with HashStash's ViewJoin
// (STORE looks every key up), or a plain Apply + STORE.
enum class FinalPlan { kReuse, kHashStash, kApplyOnly };

// Detector + classifier CondApply over a half-materialized range, run on a
// fresh store with `threads` workers and 5-row morsels (many morsels per
// 16-row chunk).
RunResult RunCondApply(int threads, FinalPlan final_plan = FinalPlan::kReuse) {
  catalog::Catalog catalog;
  catalog::UdfDef det;
  det.name = "Det";
  det.kind = catalog::UdfKind::kDetector;
  det.cost_ms = 99;
  det.recall = 0.7;
  EXPECT_TRUE(catalog.AddUdf(det).ok());
  catalog::UdfDef cls;
  cls.name = "CarType";
  cls.kind = catalog::UdfKind::kClassifier;
  cls.cost_ms = 6;
  cls.classifier_accuracy = 0.9;
  cls.target_attribute = "car_type";
  EXPECT_TRUE(catalog.AddUdf(cls).ok());
  catalog::VideoInfo info;
  info.name = "v";
  info.num_frames = 80;
  info.mean_objects_per_frame = 3;
  info.seed = 11;
  EXPECT_TRUE(catalog.AddVideo(info).ok());
  vision::SyntheticVideo video(info);
  udf::UdfRuntime runtime(&catalog);
  storage::ViewStore views;
  SimClock clock;
  QueryMetrics metrics;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);

  ExecContext ctx;
  ctx.clock = &clock;
  ctx.views = &views;
  ctx.catalog = &catalog;
  ctx.udfs = &runtime;
  ctx.video = &video;
  ctx.metrics = &metrics;
  ctx.batch_size = 16;
  ctx.morsel_rows = 5;
  ctx.pool = pool.get();

  auto chain = [](plan::PlanNodePtr parent, plan::PlanNodePtr child) {
    parent->AddChild(std::move(child));
    return parent;
  };
  auto scan = [](int64_t lo, int64_t hi) {
    return std::make_shared<plan::VideoScanNode>("v", lo, hi);
  };
  // Reuse pipeline for both UDFs over [lo, hi).
  auto reuse = [&](int64_t lo, int64_t hi, FinalPlan how) {
    auto fill = [&](const std::string& udf, plan::PlanNodePtr child) {
      if (how == FinalPlan::kApplyOnly) {
        auto apply = std::make_shared<plan::ApplyNode>(udf);
        apply->set_emit_presence_placeholders(true);
        return chain(apply, std::move(child));
      }
      auto join = std::make_shared<plan::ViewJoinNode>(udf, udf + "@v");
      join->set_scan_all_for_dedup(how == FinalPlan::kHashStash);
      return chain(std::make_shared<plan::CondApplyNode>(udf),
                   chain(join, std::move(child)));
    };
    auto det_store = chain(std::make_shared<plan::StoreNode>("Det", "Det@v"),
                           fill("Det", scan(lo, hi)));
    return chain(std::make_shared<plan::StoreNode>("CarType", "CarType@v"),
                 fill("CarType", det_store));
  };
  RunResult out;
  // Materialize the odd-numbered 8-frame stripes of [0, 40) first.
  for (int64_t lo = 8; lo < 40; lo += 16) {
    auto r = ExecutePlan(reuse(lo, lo + 8, FinalPlan::kReuse), &ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  auto r = ExecutePlan(reuse(0, 80, final_plan), &ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) out.rows = r.value().rows();
  out.clock = clock.TakeSnapshot();
  out.invocations = metrics.invocations;
  out.reused = metrics.reused;
  out.view_keys = views.Find("Det@v")->num_keys() +
                  views.Find("CarType@v")->num_keys();
  out.det_view = ImageOf(*views.Find("Det@v"));
  out.cls_view = ImageOf(*views.Find("CarType@v"));
  return out;
}

TEST(ChunkTest, CondApplyChunksEqualAtOneAndFourThreads) {
  const RunResult serial = RunCondApply(1);
  const RunResult parallel = RunCondApply(4);
  ASSERT_FALSE(serial.rows.empty());
  ExpectRowsIdentical(parallel.rows, serial.rows, "threads 4 vs 1");
  for (size_t i = 0; i < serial.clock.ms.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial.clock.ms[i], &parallel.clock.ms[i], 8), 0)
        << "category " << i;
  }
  EXPECT_EQ(serial.invocations, parallel.invocations);
  EXPECT_EQ(serial.reused, parallel.reused);
  EXPECT_GT(serial.reused.at("Det"), 0);
  EXPECT_GT(serial.invocations.at("CarType"), serial.reused.at("CarType"));
  EXPECT_EQ(serial.view_keys, parallel.view_keys);
}

// ---------------------------------------------------------------------------
// 5. STORE with and without a ViewJoin verdict
// ---------------------------------------------------------------------------

TEST(ChunkTest, StoreFollowingVerdictMatchesStoreLookingKeysUp) {
  // HashStash's ViewJoin probes exactly as EVA's but leaves STORE to look
  // every key up; only its one full-view read charge differs.
  const RunResult verdict = RunCondApply(1, FinalPlan::kReuse);
  const RunResult lookup = RunCondApply(1, FinalPlan::kHashStash);
  ASSERT_FALSE(verdict.rows.empty());
  ExpectRowsIdentical(verdict.rows, lookup.rows, "verdict vs lookup");
  for (size_t i = 0; i < verdict.clock.ms.size(); ++i) {
    if (i == static_cast<size_t>(CostCategory::kReadView)) continue;
    EXPECT_EQ(std::memcmp(&verdict.clock.ms[i], &lookup.clock.ms[i], 8), 0)
        << "category " << i;
  }
  EXPECT_EQ(verdict.invocations, lookup.invocations);
  EXPECT_EQ(verdict.reused, lookup.reused);
  ExpectSameImage(verdict.det_view, lookup.det_view, "Det@v");
  ExpectSameImage(verdict.cls_view, lookup.cls_view, "CarType@v");
}

TEST(ChunkTest, ApplyOnlyStoreSkipsKeysAlreadyPresent) {
  // Apply recomputes every row; STORE must keep the stored keys as they
  // are and add only the new ones — the rows and materialize charges of
  // the reuse plan, which computed just those.
  const RunResult reuse = RunCondApply(1, FinalPlan::kReuse);
  const RunResult apply = RunCondApply(1, FinalPlan::kApplyOnly);
  ExpectRowsIdentical(apply.rows, reuse.rows, "apply vs reuse");
  const size_t mat = static_cast<size_t>(CostCategory::kMaterialize);
  EXPECT_EQ(std::memcmp(&apply.clock.ms[mat], &reuse.clock.ms[mat], 8), 0);
  EXPECT_EQ(apply.view_keys, reuse.view_keys);
  EXPECT_GT(apply.invocations.at("Det"), reuse.invocations.at("Det") -
                                             reuse.reused.at("Det"));
  ExpectRowsIdentical(apply.det_view.rows, reuse.det_view.rows, "Det@v");
  ExpectRowsIdentical(apply.cls_view.rows, reuse.cls_view.rows,
                      "CarType@v");
  EXPECT_EQ(apply.det_view.encoded, reuse.det_view.encoded);
}

}  // namespace
}  // namespace eva::exec
