// Differential property tests for the seal-time segment codecs
// (docs/STORAGE.md): every encoding x column type x adversarial value
// distribution must reconstruct the exact stored Values and answer
// ProbeBatch / TryGet / zone-skip probes identically to an uncompressed
// view. Deterministic LCG-driven generation — failures replay from the
// printed seed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/eva_engine.h"
#include "storage/column_segment.h"
#include "storage/view_store.h"
#include "vbench/vbench.h"

namespace eva::storage {
namespace {

// Deterministic 64-bit LCG (MMIX constants); every test derives its data
// from an explicit seed so a failure is reproducible from the log alone.
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  int64_t NextInt(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }
  double NextDouble() {  // full-entropy mantissa in [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
};

// Bit-identical Value equality: Compare() orders numerically, but codecs
// must preserve the exact payload — including -0.0 and NaN bit patterns.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    uint64_t ab = 0, bb = 0;
    double ad = a.AsDouble(), bd = b.AsDouble();
    std::memcpy(&ab, &ad, sizeof(ab));
    std::memcpy(&bb, &bd, sizeof(bb));
    return ab == bb;
  }
  return a == b;
}

// ---------------------------------------------------------------------------
// Layer 1: CompressColumn differential — plain lane vs codec lane.
// ---------------------------------------------------------------------------

ColumnVec PlainInt64(const std::vector<int64_t>& vals,
                     const std::vector<bool>& nulls) {
  ColumnVec c;
  c.enc_ = ColumnVec::Enc::kInt64;
  c.n_ = vals.size();
  c.i64_ = vals;
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (!nulls[i]) continue;
    if (c.null_bits_.empty()) c.null_bits_.resize((vals.size() + 63) / 64, 0);
    c.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return c;
}

void ExpectColumnRoundTrip(const ColumnVec& plain) {
  ColumnVec packed = plain;
  CompressColumn(&packed);
  ASSERT_EQ(packed.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(SameValue(packed.At(i), plain.At(i)))
        << "row " << i << " codec=" << static_cast<int>(packed.codec())
        << ": " << packed.At(i).ToString() << " vs "
        << plain.At(i).ToString();
  }
  // The pick must never lose: the encoded footprint is at most the plain
  // one (kPlain is always a candidate).
  EXPECT_LE(packed.EncodedBytes(), plain.EncodedBytes());
}

TEST(CodecColumnTest, Int64Distributions) {
  Lcg rng(0xC0DEC1);
  struct Case {
    const char* name;
    std::vector<int64_t> vals;
    ColumnVec::Codec expect;
  };
  std::vector<Case> cases;
  // Constant: width-0 frame-of-reference (8 bytes total) beats even RLE.
  cases.push_back({"constant", std::vector<int64_t>(500, 42),
                   ColumnVec::Codec::kFor});
  // Sorted small range: FOR packs to a few bits.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(1000000 + i);
    cases.push_back({"sorted", v, ColumnVec::Codec::kFor});
  }
  // Alternating two values: numeric dictionary (1-bit indexes).
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(i % 2 == 0 ? INT64_MIN : 7);
    cases.push_back({"alternating", v, ColumnVec::Codec::kDictNum});
  }
  // Heavy tail: mostly tiny, rare huge outliers — full-width FOR loses,
  // the dictionary of few distinct values wins.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) {
      v.push_back(rng.Next() % 100 == 0 ? INT64_MAX - 1
                                        : rng.NextInt(0, 4));
    }
    cases.push_back({"heavy_tail", v, ColumnVec::Codec::kDictNum});
  }
  // Single row: FOR ties plain at 8 bytes; ties keep the plain lane.
  cases.push_back({"single", {123}, ColumnVec::Codec::kPlain});
  // High cardinality full-entropy: nothing helps, plain must survive.
  {
    std::vector<int64_t> v;
    for (int i = 0; i < 500; ++i) v.push_back(static_cast<int64_t>(rng.Next()));
    cases.push_back({"entropy", v, ColumnVec::Codec::kPlain});
  }
  for (const Case& c : cases) {
    ColumnVec plain = PlainInt64(c.vals, {});
    ColumnVec packed = plain;
    CompressColumn(&packed);
    EXPECT_EQ(packed.codec(), c.expect) << c.name;
    ExpectColumnRoundTrip(plain);
  }
}

TEST(CodecColumnTest, NullsNeverBreakEncodingChoiceOrValues) {
  Lcg rng(0xC0DEC2);
  for (double null_frac : {0.0, 0.05, 0.5, 1.0}) {
    std::vector<int64_t> vals;
    std::vector<bool> nulls;
    for (int i = 0; i < 400; ++i) {
      bool is_null = rng.NextDouble() < null_frac;
      nulls.push_back(is_null);
      vals.push_back(is_null ? 0 : 5000 + i);  // sorted when present
    }
    ExpectColumnRoundTrip(PlainInt64(vals, nulls));
  }
  // All-null column: a single run, nulls read back as nulls.
  ColumnVec all_null = PlainInt64(std::vector<int64_t>(64, 0),
                                  std::vector<bool>(64, true));
  ColumnVec packed = all_null;
  CompressColumn(&packed);
  for (size_t i = 0; i < 64; ++i) EXPECT_TRUE(packed.At(i).is_null());
}

TEST(CodecColumnTest, DoubleBitPatternsSurvive) {
  // -0.0, NaN payloads, denormals, infinities: the numeric dictionary and
  // RLE compare bit patterns, never doubles, so every payload round-trips.
  std::vector<double> specials = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::denorm_min(),
                                  1.5};
  ColumnVec plain;
  plain.enc_ = ColumnVec::Enc::kDouble;
  for (int rep = 0; rep < 40; ++rep) {
    for (double d : specials) plain.f64_.push_back(d);
  }
  plain.n_ = plain.f64_.size();
  ColumnVec packed = plain;
  CompressColumn(&packed);
  EXPECT_NE(packed.codec(), ColumnVec::Codec::kPlain);
  for (size_t i = 0; i < plain.n_; ++i) {
    ASSERT_TRUE(SameValue(packed.At(i), plain.At(i))) << "row " << i;
  }
}

TEST(CodecColumnTest, EntropyDoublesExpPack) {
  // Full-entropy mantissas defeat RLE and the value dictionary, but the
  // 12-bit sign/exponent prefix takes a handful of values, so the prefix
  // dictionary + packed-mantissa codec must win and reconstruct every bit.
  Lcg rng(0xC0DEC5);
  std::vector<double> dists[3];
  for (int i = 0; i < 600; ++i) {
    double u = rng.NextDouble();
    dists[0].push_back(0.5 + 0.5 * u);          // one exponent
    dists[1].push_back(u * u * 0.6);            // geometric exponent spread
    dists[2].push_back((u - 0.5) * 1e12 * u);   // signed, wide magnitudes
  }
  for (const std::vector<double>& vals : dists) {
    ColumnVec plain;
    plain.enc_ = ColumnVec::Enc::kDouble;
    plain.f64_ = vals;
    plain.n_ = vals.size();
    ColumnVec packed = plain;
    CompressColumn(&packed);
    EXPECT_EQ(packed.codec(), ColumnVec::Codec::kExpPack);
    EXPECT_LT(packed.EncodedBytes(), plain.EncodedBytes());
    for (size_t i = 0; i < plain.n_; ++i) {
      ASSERT_TRUE(SameValue(packed.At(i), plain.At(i))) << "row " << i;
    }
  }
  // NaN payloads and nulls mixed into an entropy lane still round-trip.
  ColumnVec noisy;
  noisy.enc_ = ColumnVec::Enc::kDouble;
  for (int i = 0; i < 400; ++i) {
    noisy.f64_.push_back(i % 97 == 0
                             ? std::numeric_limits<double>::quiet_NaN()
                             : rng.NextDouble());
  }
  noisy.n_ = noisy.f64_.size();
  noisy.null_bits_.resize((noisy.n_ + 63) / 64, 0);
  for (size_t i = 0; i < noisy.n_; i += 13) {
    noisy.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  ColumnVec noisy_packed = noisy;
  CompressColumn(&noisy_packed);
  for (size_t i = 0; i < noisy.n_; ++i) {
    ASSERT_TRUE(SameValue(noisy_packed.At(i), noisy.At(i))) << "row " << i;
  }
}

TEST(CodecColumnTest, BoolColumnsBitPack) {
  for (int pattern = 0; pattern < 3; ++pattern) {
    ColumnVec plain;
    plain.enc_ = ColumnVec::Enc::kBool;
    for (int i = 0; i < 300; ++i) {
      bool v = pattern == 0   ? true              // constant → RLE
               : pattern == 1 ? (i % 2 == 0)      // alternating → bitpack
                              : ((i * 2654435761U) % 3 == 0);
      plain.b8_.push_back(v ? 1 : 0);
    }
    plain.n_ = plain.b8_.size();
    ColumnVec packed = plain;
    CompressColumn(&packed);
    EXPECT_NE(packed.codec(), ColumnVec::Codec::kPlain) << pattern;
    for (size_t i = 0; i < plain.n_; ++i) {
      ASSERT_TRUE(SameValue(packed.At(i), plain.At(i)));
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: whole-view differential — compressed vs uncompressed stores
// built from identical Puts must agree on every probe surface.
// ---------------------------------------------------------------------------

struct ViewPair {
  MaterializedView plain;
  MaterializedView packed;
  ViewPair(const Schema& schema, int64_t segment_frames)
      : plain("t@v", schema), packed("t@v", schema) {
    plain.set_segment_frames(segment_frames);
    packed.set_segment_frames(segment_frames);
    packed.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  }
  void Put(const ViewKey& key, const std::vector<Row>& rows) {
    plain.Put(key, rows);
    packed.Put(key, rows);
  }
};

void ExpectProbesAgreeOnce(const ViewPair& pair,
                           const std::vector<ViewKey>& probes,
                           const ZoneCheckFn& zone) {
  ProbeResult rp, rc;
  pair.plain.ProbeBatch(probes, zone, &rp);
  pair.packed.ProbeBatch(probes, zone, &rc);
  ASSERT_EQ(rp.outcomes.size(), rc.outcomes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const ProbeOutcome& op = rp.outcomes[i];
    const ProbeOutcome& oc = rc.outcomes[i];
    ASSERT_EQ(op.status, oc.status)
        << "key (" << probes[i].frame << ", " << probes[i].obj << ")";
    ASSERT_EQ(op.rows_count, oc.rows_count);
    if (op.status != ProbeStatus::kHit) continue;
    for (int32_t r = 0; r < op.rows_count; ++r) {
      Row rowp = rp.segment(op).RowAt(op.rows_begin + r);
      Row rowc = rc.segment(oc).RowAt(oc.rows_begin + r);
      ASSERT_EQ(rowp.size(), rowc.size());
      for (size_t cidx = 0; cidx < rowp.size(); ++cidx) {
        ASSERT_TRUE(SameValue(rowp[cidx], rowc[cidx]))
            << "key (" << probes[i].frame << ", " << probes[i].obj
            << ") row " << r << " col " << cidx << ": "
            << rowc[cidx].ToString() << " vs " << rowp[cidx].ToString();
      }
    }
  }
  for (const ViewKey& key : probes) {
    EXPECT_EQ(pair.plain.TryGet(key).has_value(),
              pair.packed.TryGet(key).has_value());
  }
}

// Probes the open builders first (no codec involved yet), then seals both
// sides — plain lanes vs codec lanes — and probes again.
void ExpectProbesAgree(const ViewPair& pair,
                       const std::vector<ViewKey>& probes,
                       const ZoneCheckFn& zone = nullptr) {
  ExpectProbesAgreeOnce(pair, probes, zone);
  pair.plain.SealAllSegments();
  pair.packed.SealAllSegments();
  ExpectProbesAgreeOnce(pair, probes, zone);
}

std::vector<ViewKey> ProbeMix(int64_t frame_end, Lcg* rng) {
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < frame_end * 2; ++f) {
    probes.push_back({f, -1});  // half land past the stored range
  }
  for (int i = 0; i < 200; ++i) {  // scattered object-level misses
    probes.push_back({rng->NextInt(0, frame_end), rng->NextInt(0, 8)});
  }
  return probes;
}

TEST(CodecViewDifferentialTest, AdversarialDistributionsAllTypes) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  // Per-distribution generators for a row at frame f.
  enum Dist {
    kConstant = 0,
    kSorted,
    kAlternating,
    kHeavyTail,
    kAllNull,
    kEntropy,
    kNumDists
  };
  for (int dist = 0; dist < kNumDists; ++dist) {
    Lcg rng(0xD15D00 + static_cast<uint64_t>(dist));
    ViewPair pair(schema, /*segment_frames=*/64);
    const int64_t frames = 300;
    for (int64_t f = 0; f < frames; ++f) {
      Row row;
      switch (dist) {
        case kConstant:
          row = {Value(int64_t{7}), Value(2.5), Value(true), Value("car")};
          break;
        case kSorted:
          row = {Value(f), Value(static_cast<double>(f) * 0.5),
                 Value(f % 2 == 0), Value("label_" + std::to_string(f / 50))};
          break;
        case kAlternating:
          row = {Value(f % 2 == 0 ? int64_t{-1} : int64_t{1}),
                 Value(f % 2 == 0 ? -0.0 : 0.0), Value(f % 2 == 0),
                 Value(f % 2 == 0 ? "a" : "b")};
          break;
        case kHeavyTail:
          row = {Value(rng.Next() % 50 == 0 ? INT64_MAX / 2
                                            : rng.NextInt(0, 3)),
                 Value(rng.Next() % 50 == 0 ? 1e300 : 0.25),
                 Value(rng.Next() % 50 == 0), Value("x")};
          break;
        case kAllNull:
          row = {Value::Null(), Value::Null(), Value::Null(), Value::Null()};
          break;
        case kEntropy:
        default:
          row = {Value(static_cast<int64_t>(rng.Next())),
                 Value(rng.NextDouble()), Value((rng.Next() & 1) != 0),
                 Value("s" + std::to_string(rng.Next()))};
          break;
      }
      // Some frames carry several rows, some zero (presence-only keys).
      std::vector<Row> rows;
      int nrows = static_cast<int>(rng.Next() % 3);
      for (int r = 0; r < nrows; ++r) rows.push_back(row);
      pair.Put({f, -1}, rows);
    }
    Lcg probe_rng(0x9E3779B9);
    ExpectProbesAgree(pair, ProbeMix(frames, &probe_rng));
  }
}

TEST(CodecViewDifferentialTest, SingleRowAndSparseKeys) {
  Schema schema({{"v", DataType::kInt64}});
  ViewPair pair(schema, 64);
  pair.Put({17, -1}, {{Value(int64_t{99})}});   // a single stored key
  pair.Put({4099, 3}, {{Value(int64_t{-5})}});  // far-away object key
  Lcg rng(0x5EED);
  ExpectProbesAgree(pair, ProbeMix(4200, &rng));
}

TEST(CodecViewDifferentialTest, DictOverflowFallsBackToValueStorage) {
  // > 64Ki distinct strings in one segment: the dictionary encoding must
  // step aside (code space is int32 but the cost model caps the dict) and
  // the raw Value fallback still answers probes identically.
  Schema schema({{"s", DataType::kString}});
  ViewPair pair(schema, /*segment_frames=*/1 << 20);  // one segment
  const int64_t frames = (1 << 16) + 500;
  for (int64_t f = 0; f < frames; ++f) {
    pair.Put({f, -1}, {{Value("unique_" + std::to_string(f))}});
  }
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < frames; f += 97) probes.push_back({f, -1});
  probes.push_back({frames + 1, -1});
  ExpectProbesAgree(pair, probes);
  // The packed side fell back to kValue for the overflowing column.
  auto segs = pair.packed.SealedSegments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].second->cols[0].enc(), ColumnVec::Enc::kValue);
}

TEST(CodecViewDifferentialTest, ZoneSkipDecisionsMatch) {
  // Zone maps are maintained as rows are appended, before any codec, so a
  // residual-predicate zone check must skip exactly the same segments on
  // both sides.
  Schema schema({{"score", DataType::kDouble}});
  ViewPair pair(schema, 32);
  for (int64_t f = 0; f < 256; ++f) {
    // Segment k holds scores centered on k: zones differ per segment.
    double score = static_cast<double>(f / 32) + 0.25;
    pair.Put({f, -1}, {{Value(score)}});
  }
  ZoneCheckFn require_high = [](const SegmentZone& seg) {
    return seg.cols[0].valid && seg.cols[0].num_max >= 4.0;
  };
  std::vector<ViewKey> probes;
  for (int64_t f = 0; f < 256; ++f) probes.push_back({f, -1});
  ProbeResult rp, rc;
  pair.plain.ProbeBatch(probes, require_high, &rp);
  pair.packed.ProbeBatch(probes, require_high, &rc);
  ASSERT_EQ(rp.outcomes.size(), rc.outcomes.size());
  int skipped = 0;
  for (size_t i = 0; i < rp.outcomes.size(); ++i) {
    ASSERT_EQ(rp.outcomes[i].status, rc.outcomes[i].status) << i;
    if (rp.outcomes[i].status == ProbeStatus::kHitSkipped) ++skipped;
  }
  EXPECT_GT(skipped, 0);                           // the check does bite
  EXPECT_EQ(rp.segments_skipped, rc.segments_skipped);
  // Sealing changes the representation, never a skip decision.
  pair.packed.SealAllSegments();
  ProbeResult rs;
  pair.packed.ProbeBatch(probes, require_high, &rs);
  for (size_t i = 0; i < rp.outcomes.size(); ++i) {
    ASSERT_EQ(rp.outcomes[i].status, rs.outcomes[i].status) << i;
  }
  EXPECT_EQ(rp.segments_skipped, rs.segments_skipped);
}

TEST(CodecViewDifferentialTest, CompressedFootprintNeverLarger) {
  Schema schema({{"obj", DataType::kInt64},
                 {"label", DataType::kString},
                 {"score", DataType::kDouble}});
  ViewPair pair(schema, 64);
  Lcg rng(0xFEED);
  for (int64_t f = 0; f < 512; ++f) {
    pair.Put({f, -1}, {{Value(rng.NextInt(0, 10)),
                        Value(rng.Next() % 4 == 0 ? "car" : "person"),
                        Value(rng.NextDouble())}});
  }
  pair.plain.SealAllSegments();
  pair.packed.SealAllSegments();
  for (const auto& [seg_id, seg] : pair.packed.SealedSegments()) {
    EXPECT_LE(seg->encoded_bytes, seg->raw_bytes) << "segment " << seg_id;
    EXPECT_GT(seg->encoded_bytes, 0);
  }
  ViewCompressionStats cs = pair.packed.CompressionStats();
  EXPECT_GT(cs.sealed_segments, 0);
  EXPECT_LT(cs.encoded_bytes, cs.raw_bytes);
}

// ---------------------------------------------------------------------------
// Layer 2b: codec pricing differential — the seal prices the numeric
// dictionaries in a flat table and stops once they cannot win; the oracle
// below is the node-based hash-map pricing it replaced. Both must pick the
// same codec and lay out the same dictionary and packed words.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<T> OracleEffectiveLane(const ColumnVec& col,
                                   const std::vector<T>& cells) {
  std::vector<T> eff(cells.size());
  T fill = T{};
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!col.NullAt(i)) {
      fill = cells[i];
      break;
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!col.NullAt(i)) fill = cells[i];
    eff[i] = fill;
  }
  return eff;
}

template <typename T>
bool OracleNumDict(const std::vector<T>& v, std::vector<T>* dict,
                   std::vector<uint64_t>* indexes) {
  dict->clear();
  indexes->clear();
  std::unordered_map<T, uint64_t> seen;
  for (const T& x : v) {
    auto it = seen.find(x);
    if (it == seen.end()) {
      it = seen.emplace(x, dict->size()).first;
      dict->push_back(x);
      if (dict->size() > 4096) return false;
    }
    indexes->push_back(it->second);
  }
  return true;
}

template <typename T>
void OracleRuns(const std::vector<T>& v, std::vector<T>* values,
                std::vector<uint32_t>* ends) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (i == 0 || v[i] != v[i - 1]) {
      values->push_back(v[i]);
      ends->push_back(static_cast<uint32_t>(i + 1));
    } else {
      ends->back() = static_cast<uint32_t>(i + 1);
    }
  }
}

size_t OracleDictCost(size_t n, size_t d) {
  return d * 8 +
         BitPackedVec::PackedBytes(n, BitPackedVec::WidthFor(d - 1));
}

// Int64 / Double pricing with unordered_map dictionaries, as sealed
// segments were priced before the flat table. Other encodings are priced
// without dictionaries, so CompressColumn is their oracle.
void OracleCompressColumn(ColumnVec* col) {
  const size_t n = col->n_;
  if (col->codec_ != ColumnVec::Codec::kPlain || n == 0) return;
  if (col->enc_ == ColumnVec::Enc::kInt64) {
    const std::vector<int64_t> eff = OracleEffectiveLane(*col, col->i64_);
    const auto [lo, hi] = std::minmax_element(eff.begin(), eff.end());
    const int64_t mn = *lo;
    const int for_w = BitPackedVec::WidthFor(static_cast<uint64_t>(*hi) -
                                             static_cast<uint64_t>(mn));
    std::vector<int64_t> run_vals, dict;
    std::vector<uint32_t> run_ends;
    std::vector<uint64_t> idx;
    OracleRuns(eff, &run_vals, &run_ends);
    const bool dict_ok = OracleNumDict(eff, &dict, &idx);
    const size_t cost_plain = 8 * n;
    const size_t cost_for = BitPackedVec::PackedBytes(n, for_w) + 8;
    const size_t cost_rle = run_vals.size() * 12;
    const size_t cost_dict =
        dict_ok ? OracleDictCost(n, dict.size()) : ~size_t{0};
    const size_t best = std::min({cost_plain, cost_for, cost_rle, cost_dict});
    if (best == cost_plain) return;
    if (best == cost_for) {
      std::vector<uint64_t> deltas;
      for (int64_t v : eff) {
        deltas.push_back(static_cast<uint64_t>(v) -
                         static_cast<uint64_t>(mn));
      }
      col->packed_.Pack(deltas, for_w);
      col->for_base_ = mn;
      col->i64_.clear();
      col->codec_ = ColumnVec::Codec::kFor;
    } else if (best == cost_rle) {
      col->i64_ = run_vals;
      col->rle_end_ = run_ends;
      col->codec_ = ColumnVec::Codec::kRle;
    } else {
      col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
      col->i64_ = dict;
      col->codec_ = ColumnVec::Codec::kDictNum;
    }
    return;
  }
  if (col->enc_ != ColumnVec::Enc::kDouble) return CompressColumn(col);
  std::vector<uint64_t> bits(n);
  std::memcpy(bits.data(), col->f64_.data(), 8 * n);
  const std::vector<uint64_t> eff = OracleEffectiveLane(*col, bits);
  std::vector<uint64_t> run_vals, dict, idx, prefixes, exp_dict, exp_idx;
  std::vector<uint32_t> run_ends;
  OracleRuns(eff, &run_vals, &run_ends);
  const bool dict_ok = OracleNumDict(eff, &dict, &idx);
  for (uint64_t b : eff) prefixes.push_back(b >> 52);
  OracleNumDict(prefixes, &exp_dict, &exp_idx);
  const int exp_w = 52 + BitPackedVec::WidthFor(exp_dict.size() - 1);
  const size_t cost_plain = 8 * n;
  const size_t cost_rle = run_vals.size() * 12;
  const size_t cost_dict =
      dict_ok ? OracleDictCost(n, dict.size()) : ~size_t{0};
  const size_t cost_exp =
      exp_dict.size() * 8 + BitPackedVec::PackedBytes(n, exp_w);
  const size_t best = std::min({cost_plain, cost_rle, cost_dict, cost_exp});
  if (best == cost_plain) return;
  auto doubles = [](const std::vector<uint64_t>& b) {
    std::vector<double> d(b.size());
    std::memcpy(d.data(), b.data(), 8 * b.size());
    return d;
  };
  if (best == cost_rle) {
    col->f64_ = doubles(run_vals);
    col->rle_end_ = run_ends;
    col->codec_ = ColumnVec::Codec::kRle;
  } else if (best == cost_dict) {
    col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
    col->f64_ = doubles(dict);
    col->codec_ = ColumnVec::Codec::kDictNum;
  } else {
    std::vector<uint64_t> lane(n);
    for (size_t i = 0; i < n; ++i) {
      lane[i] = (exp_idx[i] << 52) | (eff[i] & ((uint64_t{1} << 52) - 1));
    }
    col->packed_.Pack(lane, exp_w);
    col->i64_.assign(exp_dict.begin(), exp_dict.end());
    col->f64_.clear();
    col->codec_ = ColumnVec::Codec::kExpPack;
  }
}

// Same codec, dictionary / run values, packed words and encoded bytes.
void ExpectSameEncoding(const ColumnVec& got, const ColumnVec& want,
                        const std::string& what) {
  EXPECT_EQ(got.codec(), want.codec()) << what;
  EXPECT_EQ(got.i64_, want.i64_) << what;
  ASSERT_EQ(got.f64_.size(), want.f64_.size()) << what;
  for (size_t i = 0; i < got.f64_.size(); ++i) {
    ASSERT_TRUE(SameValue(Value(got.f64_[i]), Value(want.f64_[i])))
        << what << " value " << i;
  }
  EXPECT_EQ(got.packed_.width(), want.packed_.width()) << what;
  EXPECT_EQ(got.packed_.words(), want.packed_.words()) << what;
  EXPECT_EQ(got.rle_end_, want.rle_end_) << what;
  EXPECT_EQ(got.for_base_, want.for_base_) << what;
  EXPECT_EQ(got.EncodedBytes(), want.EncodedBytes()) << what;
}

void ExpectPricedLikeOracle(const ColumnVec& plain, const std::string& what) {
  ColumnVec got = plain;
  ColumnVec want = plain;
  CompressColumn(&got);
  OracleCompressColumn(&want);
  ExpectSameEncoding(got, want, what);
}

ColumnVec PlainDouble(const std::vector<double>& vals) {
  ColumnVec c;
  c.enc_ = ColumnVec::Enc::kDouble;
  c.n_ = vals.size();
  c.f64_ = vals;
  return c;
}

double FromBits(uint64_t b) {
  double d;
  std::memcpy(&d, &b, 8);
  return d;
}

// Nulls on the first `lead` rows and every `every`-th row after them.
ColumnVec WithNulls(ColumnVec c, size_t lead, size_t every) {
  c.null_bits_.assign((c.n_ + 63) / 64, 0);
  for (size_t i = 0; i < c.n_; ++i) {
    if (i < lead || i % every == 0) {
      c.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return c;
}

TEST(CodecPricingDifferentialTest, FlatTablePricingMatchesHashMapOracle) {
  Lcg rng(0xD1C7);
  std::vector<std::pair<std::string, ColumnVec>> lanes;
  // At and around the 4096-value cap, with every value repeated five
  // times so the dictionary wins up to the cap.
  for (size_t distinct : {4095, 4096, 4097}) {
    std::vector<uint64_t> pool(distinct);
    for (uint64_t& x : pool) x = rng.Next();
    std::vector<int64_t> iv;
    std::vector<double> dv;
    for (size_t i = 0; i < 5 * distinct; ++i) {
      const uint64_t x = pool[(i * 7919) % distinct];
      iv.push_back(static_cast<int64_t>(x));
      dv.push_back(FromBits(x));
    }
    const std::string d = std::to_string(distinct);
    lanes.emplace_back("int distinct " + d, PlainInt64(iv, {}));
    lanes.emplace_back("double distinct " + d, PlainDouble(dv));
  }
  // Value pools swept across the point where the dictionary stops beating
  // FOR (ints with outliers) and the prefix dictionary (entropy doubles).
  for (size_t pool_size = 1; pool_size <= 600; pool_size += 13) {
    std::vector<int64_t> ipool(pool_size);
    std::vector<double> dpool(pool_size);
    for (size_t k = 0; k < pool_size; ++k) {
      ipool[k] = k % 5 == 0 ? rng.NextInt(0, INT64_MAX) : rng.NextInt(0, 1000);
      dpool[k] = rng.NextDouble() * 100.0;
    }
    std::vector<int64_t> iv;
    std::vector<double> dv;
    for (size_t i = 0; i < 600; ++i) {  // exactly pool_size distinct
      const size_t k = i < pool_size ? i : rng.Next() % pool_size;
      iv.push_back(ipool[k]);
      dv.push_back(dpool[k]);
    }
    const std::string p = std::to_string(pool_size);
    lanes.emplace_back("int pool " + p, PlainInt64(iv, {}));
    lanes.emplace_back("double pool " + p, PlainDouble(dv));
    lanes.emplace_back("double pool nulls " + p,
                       WithNulls(PlainDouble(dv), 5, 7));
    lanes.emplace_back("int pool nulls " + p, WithNulls(PlainInt64(iv, {}),
                                                        3, 11));
  }
  // NaN payloads and signed zeros, alone and among other values.
  const std::vector<double> specials = {
      0.0, -0.0, FromBits(0x7ff8000000000123ULL),
      FromBits(0xfff8000000000001ULL),
      std::numeric_limits<double>::quiet_NaN(), 1.25};
  std::vector<double> sv;
  for (int i = 0; i < 700; ++i) sv.push_back(specials[rng.Next() % 6]);
  lanes.emplace_back("nan and signed zero", PlainDouble(sv));
  lanes.emplace_back("nan and signed zero, nulls",
                     WithNulls(PlainDouble(sv), 64, 5));
  // All-equal lanes, one with a null prefix, and single rows.
  lanes.emplace_back("int all equal", PlainInt64(std::vector<int64_t>(300, 9),
                                                 {}));
  lanes.emplace_back("double all equal",
                     PlainDouble(std::vector<double>(300, -0.0)));
  lanes.emplace_back("double all equal, null prefix",
                     WithNulls(PlainDouble(std::vector<double>(300, 2.5)),
                               100, 1000));
  lanes.emplace_back("int single", PlainInt64({-4}, {}));
  lanes.emplace_back("double single", PlainDouble({0.5}));
  // High-entropy doubles: the prefix dictionary's lane.
  std::vector<double> ev;
  for (int i = 0; i < 1000; ++i) ev.push_back(rng.NextDouble() * 1e4);
  lanes.emplace_back("entropy doubles", PlainDouble(ev));

  int dictnum = 0;
  int exppack = 0;
  for (const auto& [what, plain] : lanes) {
    ExpectPricedLikeOracle(plain, what);
    ColumnVec packed = plain;
    CompressColumn(&packed);
    dictnum += packed.codec() == ColumnVec::Codec::kDictNum;
    exppack += packed.codec() == ColumnVec::Codec::kExpPack;
    if (what == "entropy doubles") {
      EXPECT_EQ(packed.codec(), ColumnVec::Codec::kExpPack);
    }
    if (what.rfind("int distinct", 0) == 0) {
      EXPECT_EQ(packed.codec() == ColumnVec::Codec::kDictNum,
                what != "int distinct 4097")
          << what;
    }
  }
  // The sweep crosses the decision boundaries both ways.
  EXPECT_GT(dictnum, 10);
  EXPECT_GT(exppack, 10);
}

TEST(CodecPricingDifferentialTest, ResealOfOutOfOrderKeysMatchesOracle) {
  // A sealed part, then open keys put out of order into the same segment:
  // the re-seal merges them, and each lane must be what the oracle makes
  // of the merged plain lane.
  Schema schema({{"i", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"level", DataType::kDouble},
                 {"label", DataType::kString}});
  MaterializedView view("t@v", schema);
  view.set_segment_frames(1024);
  view.set_build_options({/*compress=*/true, /*bloom_bits_per_key=*/10});
  Lcg rng(0x5EA1);
  std::map<int64_t, Row> rows;
  auto put = [&](int64_t f) {
    Row row = {Value(rng.NextInt(0, 4) * 1000000007),
               Value(rng.NextDouble()),
               f % 9 == 0 ? Value::Null() : Value(0.25 * rng.NextInt(0, 6)),
               Value(rng.Next() % 3 == 0 ? "bus" : "car")};
    rows[f] = row;
    ASSERT_TRUE(view.Put({f, -1}, {row}));
  };
  for (int64_t f = 0; f < 400; f += 2) put(f);
  view.SealAllSegments();
  for (int64_t f = 799; f > 0; f -= 2) put(f);  // descending, interleaved
  for (int64_t f = 400; f < 800; f += 2) put(f);
  auto segs = view.SealedSegments();
  ASSERT_EQ(segs.size(), 1u);
  const ColumnarSegment& seg = *segs[0].second;
  ASSERT_EQ(seg.num_keys(), rows.size());
  std::vector<ColumnBuilder> merged(schema.num_fields());
  size_t k = 0;
  for (const auto& [f, row] : rows) {
    ASSERT_EQ(seg.key(k++), (ViewKey{f, -1}));
    for (size_t c = 0; c < row.size(); ++c) merged[c].Append(row[c]);
  }
  for (size_t c = 0; c < merged.size(); ++c) {
    ColumnVec want = merged[c].Finish();
    OracleCompressColumn(&want);
    ExpectSameEncoding(seg.cols[c], want, "col " + std::to_string(c));
  }
  EXPECT_EQ(seg.cols[0].codec(), ColumnVec::Codec::kDictNum);
  EXPECT_EQ(seg.cols[1].codec(), ColumnVec::Codec::kExpPack);
}

// ---------------------------------------------------------------------------
// Layer 3: engine differential — a real vbench workload with compression
// on vs off, at 1 and 4 worker threads, must return byte-identical result
// sets and identical reuse accounting.
// ---------------------------------------------------------------------------

TEST(CodecEngineDifferentialTest, WorkloadBitIdenticalAcrossConfigs) {
  catalog::VideoInfo video;
  video.name = "pv";
  video.num_frames = 150;
  video.mean_objects_per_frame = 5;
  video.seed = 11;
  const std::vector<std::string> workload = {
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 100 AND label = 'car';",
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id >= 50 AND id < 150 AND label = 'car';",
      "SELECT id, obj, label FROM pv CROSS APPLY FasterRCNNResNet50(frame) "
      "WHERE id < 150 AND score > 0.5 AND label = 'car';",
  };
  std::vector<std::string> reference;
  for (int threads : {1, 4}) {
    for (bool compress : {false, true}) {
      engine::EngineOptions options;
      options.optimizer.mode = optimizer::ReuseMode::kEva;
      options.num_threads = threads;
      options.segment_frames = 32;
      options.segment_compression = compress;
      options.bloom_bits_per_key = compress ? 10 : 0;
      auto er = vbench::MakeEngine(options, video);
      ASSERT_TRUE(er.ok());
      auto engine = er.MoveValue();
      for (size_t i = 0; i < workload.size(); ++i) {
        auto r = engine->Execute(workload[i]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::string text = r.value().batch.ToString(1 << 20);
        if (threads == 1 && !compress) {
          reference.push_back(text);
        } else {
          EXPECT_EQ(text, reference[i])
              << "threads=" << threads << " compress=" << compress
              << " query " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace eva::storage
