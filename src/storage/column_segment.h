#ifndef EVA_STORAGE_COLUMN_SEGMENT_H_
#define EVA_STORAGE_COLUMN_SEGMENT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "storage/bloom_filter.h"
#include "storage/segment_codec.h"

namespace eva::storage {

/// Key identifying the input tuple a UDF result belongs to: a frame for
/// detectors/filters, a (frame, object) pair for classifiers (obj = -1 for
/// frame-level results).
struct ViewKey {
  int64_t frame = 0;
  int64_t obj = -1;

  bool operator==(const ViewKey& other) const {
    return frame == other.frame && obj == other.obj;
  }
  bool operator<(const ViewKey& other) const {
    return frame != other.frame ? frame < other.frame : obj < other.obj;
  }
};

struct ViewKeyHash {
  size_t operator()(const ViewKey& k) const {
    return std::hash<int64_t>()(k.frame * 1000003 + k.obj);
  }
};

/// Typed column vector of one materialized-view segment. Encodings cover
/// the cell types UDFs produce; a column whose non-null cells do not share
/// one type falls back to raw Value storage. On top of the type encoding a
/// lightweight codec may compress the physical lane (chosen at seal time
/// by byte cost — see docs/STORAGE.md): frame-of-reference bit-packing for
/// integers, run-length for any repetitive lane, plain bit-packing for
/// bools and dictionary codes, and a numeric dictionary for low-cardinality
/// Int64/Double columns. At(i) reconstructs the exact Value that was
/// stored — the operator rows a view was materialized from must read back
/// bit-identically (Value::Compare distinguishes Int64 from Double, so
/// codecs never widen, quantize, or reorder).
class ColumnVec {
 public:
  enum class Enc : uint8_t {
    kInt64 = 0,  // all non-null cells Int64
    kDouble,     // all non-null cells Double
    kBool,       // all non-null cells Bool
    kDict,       // all non-null cells String, dictionary-coded
    kValue,      // mixed types: raw Value storage
  };

  /// Physical lane codec (orthogonal to Enc; kValue is always kPlain).
  enum class Codec : uint8_t {
    kPlain = 0,  // the typed lane as-is
    kFor,        // Int64: bit-packed deltas from for_base_
    kBitPack,    // Bool / dict codes: bit-packed raw values
    kRle,        // run values in the typed lane + cumulative run ends
    kDictNum,    // Int64/Double: distinct values + bit-packed indexes
    kExpPack,    // Double: sign/exponent dictionary + packed mantissas
  };
  static constexpr int kNumCodecs = 6;
  static const char* CodecName(Codec c);

  Value At(size_t i) const {
    if (enc_ == Enc::kValue) return raw_[i];
    if (NullAt(i)) return Value::Null();
    switch (enc_) {
      case Enc::kInt64:
        return Value(Int64At(i));
      case Enc::kDouble:
        return Value(DoubleAt(i));
      case Enc::kBool:
        return Value(BoolAt(i));
      case Enc::kDict:
        return Value(dict_[static_cast<size_t>(CodeAt(i))]);
      case Enc::kValue:
        break;
    }
    return Value::Null();
  }

  /// Typed cell readers for a non-null row of the matching encoding,
  /// decoding the lane's codec in place.
  int64_t Int64At(size_t i) const {
    switch (codec_) {
      case Codec::kFor:
        return for_base_ + static_cast<int64_t>(packed_.Get(i));
      case Codec::kRle:
        return i64_[RunOf(i)];
      case Codec::kDictNum:
        return i64_[packed_.Get(i)];
      default:
        return i64_[i];
    }
  }
  double DoubleAt(size_t i) const {
    switch (codec_) {
      case Codec::kRle:
        return f64_[RunOf(i)];
      case Codec::kDictNum:
        return f64_[packed_.Get(i)];
      case Codec::kExpPack: {
        // Lane value = (prefix code << 52) | 52-bit mantissa; i64_
        // dictionaries the distinct sign/exponent prefixes. Bit-level
        // reconstruction, so NaN payloads and -0.0 survive.
        uint64_t v = packed_.Get(i);
        uint64_t bits =
            (static_cast<uint64_t>(i64_[static_cast<size_t>(v >> 52)])
             << 52) |
            (v & ((uint64_t{1} << 52) - 1));
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
      }
      default:
        return f64_[i];
    }
  }
  bool BoolAt(size_t i) const {
    switch (codec_) {
      case Codec::kBitPack:
        return packed_.Get(i) != 0;
      case Codec::kRle:
        return b8_[RunOf(i)] != 0;
      default:
        return b8_[i] != 0;
    }
  }
  /// Dictionary code of a kDict row (index into dict_).
  int32_t CodeAt(size_t i) const {
    switch (codec_) {
      case Codec::kBitPack:
        return static_cast<int32_t>(packed_.Get(i));
      case Codec::kRle:
        return codes_[RunOf(i)];
      default:
        return codes_[i];
    }
  }

  bool NullAt(size_t i) const {
    return !null_bits_.empty() &&
           ((null_bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  Enc enc() const { return enc_; }
  Codec codec() const { return codec_; }
  size_t size() const { return enc_ == Enc::kValue ? raw_.size() : n_; }

  /// Bytes of the current physical representation (data lanes + null
  /// bitmap + dictionary) — the number eviction accounting charges.
  size_t EncodedBytes() const;
  /// Bytes the same cells take in the plain typed lane (equal to
  /// EncodedBytes() for a plain column).
  size_t PlainBytes() const;
  /// Heap bytes held: lane capacities, not sizes.
  size_t HeapBytes() const;

  // Representation is internal to the storage layer; ColumnBuilder and the
  // .evaseg codec fill it directly.
  Enc enc_ = Enc::kValue;
  Codec codec_ = Codec::kPlain;
  size_t n_ = 0;                      // logical row count (typed encodings)
  std::vector<uint64_t> null_bits_;   // packed; empty = no nulls
  std::vector<int64_t> i64_;          // plain/RLE/dict values; kExpPack
                                      // sign+exponent prefix dictionary
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<int32_t> codes_;        // plain / RLE-run dict codes
  std::vector<std::string> dict_;     // insertion order
  std::vector<Value> raw_;
  int64_t for_base_ = 0;              // kFor reference value
  BitPackedVec packed_;               // kFor deltas / kBitPack / kDictNum idx
  std::vector<uint32_t> rle_end_;     // kRle cumulative run end offsets

  /// Run index containing row i (upper_bound over rle_end_).
  size_t RunOf(size_t i) const {
    size_t lo = 0, hi = rle_end_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (rle_end_[mid] <= i) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

/// Per-column zone summary used for segment skipping: a probe can prove a
/// residual predicate unsatisfiable for every row of a segment and skip
/// materializing its hits. `valid` is the master flag — it is false when
/// the non-null cells mix types or when integer magnitudes exceed the
/// double-exact range, and consumers must then treat the column as
/// unbounded. Zones are maintained cell by cell as rows are appended, so
/// skip decisions never depend on the codecs or on when a segment was
/// sealed.
struct ZoneMapEntry {
  bool valid = false;
  DataType type = DataType::kNull;  // uniform non-null cell type
  bool has_nulls = false;
  bool all_null = true;  // no non-null cell in the segment
  double num_min = 0;    // Int64 / Double / Bool(0,1) bounds
  double num_max = 0;
  std::set<std::string> strings;  // distinct values (kString)

  /// Folds one appended cell into the summary. Once invalid, a zone stays
  /// invalid and is not updated further. The typed forms fold a non-null
  /// cell of that type; Observe(v) dispatches to them.
  void Observe(const Value& v);
  void ObserveNull() { has_nulls = true; }
  void ObserveInt64(int64_t v);
  void ObserveDouble(double v);
  void ObserveBool(bool v);
  void ObserveString(const std::string& v);

 private:
  /// Type check shared by the typed forms: kSkip when the zone is (or
  /// just became) invalid and the cell must not be folded.
  enum class Fold { kSkip, kFirst, kNext };
  Fold Admit(DataType t);
  void Widen(double d, Fold fold);
};

/// Zone summary of one whole view segment — sealed and open rows alike —
/// handed to the probe path's zone-check callback: one entry per value
/// column, plus the key bounds that the "id" and "obj" columns resolve to.
struct SegmentZone {
  SegmentZone() = default;
  /// An empty segment: every column all-null (and therefore valid).
  explicit SegmentZone(size_t num_cols) : cols(num_cols) {
    for (ZoneMapEntry& z : cols) z.valid = true;
  }

  std::vector<ZoneMapEntry> cols;
  int64_t keys = 0;
  int64_t frame_min = 0;
  int64_t frame_max = 0;
  int64_t obj_min = 0;
  int64_t obj_max = 0;

  void ObserveKey(const ViewKey& key) {
    if (keys++ == 0) {
      frame_min = frame_max = key.frame;
      obj_min = obj_max = key.obj;
      return;
    }
    frame_min = std::min(frame_min, key.frame);
    frame_max = std::max(frame_max, key.frame);
    obj_min = std::min(obj_min, key.obj);
    obj_max = std::max(obj_max, key.obj);
  }
};

/// Seal-time storage configuration, threaded from EngineOptions through
/// ViewStore/MaterializedView. Defaults preserve the pre-codec behavior
/// (plain lanes, no filter) for direct library callers; the engine turns
/// both features on unless configured otherwise.
struct SegmentBuildOptions {
  bool compress = false;     // pick per-column codecs + pack the key index
  int bloom_bits_per_key = 0;  // 0 disables the per-segment Bloom filter
};

/// One typed column: the open lane of a view segment and the column of an
/// execution chunk (src/exec/chunk.h) alike. The lane is a plain
/// (uncompressed) ColumnVec typed by its first non-null cell; it falls
/// back to raw Value storage once a cell of another type arrives, and an
/// all-null prefix is only counted. Every typed append is exactly
/// Append(Value(v)), and At() reads any appended cell back exactly (Int64
/// vs Double, NULL, NaN payloads, -0.0). Finish() yields the plain column
/// a seal compresses.
class ColumnBuilder {
 public:
  void Append(const Value& v);
  void AppendNull() {
    const size_t i = n_++;
    if (type_ == DataType::kNull) return;  // all-null so far: counted
    if (lane_.enc_ == ColumnVec::Enc::kValue) {
      lane_.raw_.emplace_back();
      return;
    }
    lane_.n_ = n_;
    lane_.null_bits_.resize((n_ + 63) / 64, 0);
    lane_.null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
    switch (lane_.enc_) {
      case ColumnVec::Enc::kInt64:
        lane_.i64_.push_back(0);
        break;
      case ColumnVec::Enc::kDouble:
        lane_.f64_.push_back(0);
        break;
      case ColumnVec::Enc::kBool:
        lane_.b8_.push_back(0);
        break;
      case ColumnVec::Enc::kDict:
        lane_.codes_.push_back(0);
        break;
      case ColumnVec::Enc::kValue:
        break;
    }
  }
  void AppendInt64(int64_t v) {
    if (lane_.enc_ != ColumnVec::Enc::kInt64) return Append(Value(v));
    GrowTyped();
    lane_.i64_.push_back(v);
  }
  void AppendDouble(double v) {
    if (lane_.enc_ != ColumnVec::Enc::kDouble) return Append(Value(v));
    GrowTyped();
    lane_.f64_.push_back(v);
  }
  void AppendBool(bool v) {
    if (lane_.enc_ != ColumnVec::Enc::kBool) return Append(Value(v));
    GrowTyped();
    lane_.b8_.push_back(v ? 1 : 0);
  }
  void AppendString(const std::string& v) {
    if (lane_.enc_ != ColumnVec::Enc::kDict) return Append(Value(v));
    const int32_t code = CodeOf(v);
    GrowTyped();
    lane_.codes_.push_back(code);
  }
  /// Appends cells [begin, begin + count) of `src` (any codec), decoded
  /// lane to lane. `remap` caches src dictionary code -> own code; it is
  /// valid for one (src, this) pair and may be shared across calls for
  /// that pair (nullptr: no cache).
  void AppendRange(const ColumnVec& src, size_t begin, size_t count,
                   std::vector<int32_t>* remap = nullptr);
  void AppendRange(const ColumnBuilder& src, size_t begin, size_t count,
                   std::vector<int32_t>* remap = nullptr) {
    if (src.type_ == DataType::kNull) {
      for (size_t i = 0; i < count; ++i) AppendNull();
      return;
    }
    AppendRange(src.lane_, begin, count, remap);
  }
  /// Cells of `src` at `rows`, in that order, as a new column.
  static ColumnBuilder Gather(const ColumnBuilder& src,
                              std::span<const uint32_t> rows);
  /// Keeps the cells i with keep[i] != 0, in order (keep has size()
  /// entries).
  void Filter(const uint8_t* keep);

  size_t size() const { return n_; }
  bool IsNull(size_t i) const {
    if (type_ == DataType::kNull) return true;
    if (lane_.enc_ == ColumnVec::Enc::kValue) return lane_.raw_[i].is_null();
    return lane_.NullAt(i);
  }
  Value At(size_t i) const {
    return type_ == DataType::kNull ? Value::Null() : lane_.At(i);
  }
  /// Int64 cell (frame ids, object ids): the typed lane when there is one.
  int64_t Int64At(size_t i) const {
    return lane_.enc_ == ColumnVec::Enc::kInt64 ? lane_.i64_[i]
                                                : At(i).AsInt64();
  }
  /// True while no non-null cell was appended; lane() is then empty.
  bool all_null() const { return type_ == DataType::kNull; }
  /// The plain lane: typed (enc != kValue), or raw Values once types mix.
  const ColumnVec& lane() const { return lane_; }
  /// Heap bytes held by the lane (capacity, not size).
  size_t HeapBytes() const;
  /// The plain column: typed lanes with a null bitmap only when some cell
  /// is null, a string dictionary in first-occurrence order, and raw Value
  /// storage for mixed, all-null, or over-cardinality string columns.
  ColumnVec Finish() const;

 private:
  // One more non-null cell on the typed lane (the caller pushes it).
  void GrowTyped() {
    ++n_;
    lane_.n_ = n_;
    if (!lane_.null_bits_.empty()) {
      lane_.null_bits_.resize((n_ + 63) / 64, 0);
    }
  }
  int32_t CodeOf(const std::string& v);  // own dictionary code, adding v
  void StartTyped(DataType t);  // all-null prefix -> typed lane
  void MakeRaw();               // typed lane -> raw Values
  std::vector<Value> RawCells() const;

  ColumnVec lane_;
  DataType type_ = DataType::kNull;  // kNull until the first non-null cell
  size_t n_ = 0;
  /// String -> code over lane_.dict_, used once the dictionary outgrows a
  /// scan; rebuilt when it falls behind the dictionary (a Gather copies the
  /// dictionary, not the index).
  std::unordered_map<std::string, int32_t> dict_index_;
};

/// The open (unsealed) part of one view segment: keys in insertion order
/// with their prefix row offsets, a flat hash index over the keys, and one
/// ColumnBuilder per value column. MaterializedView::Put appends here;
/// a seal merges it with the segment's sealed part and starts over.
class SegmentBuilder {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit SegmentBuilder(size_t num_cols) : cols_(num_cols) {
    row_begin_.push_back(0);
  }

  /// Appends `key` (which must be absent) with the cells of `src` at
  /// `rows`: column c takes src[c]'s cells, a column past the end of `src`
  /// reads NULL. Every appended key and cell is folded into `zone`.
  void Append(const ViewKey& key, std::span<const ColumnBuilder> src,
              std::span<const uint32_t> rows, SegmentZone* zone);

  /// Insertion index of `key`, npos when absent.
  size_t Find(const ViewKey& key) const;

  size_t num_keys() const { return keys_.size(); }
  size_t num_cols() const { return cols_.size(); }
  int64_t num_rows() const { return row_begin_.back(); }
  const ViewKey& key(size_t i) const { return keys_[i]; }
  const std::vector<ViewKey>& keys() const { return keys_; }
  /// Rows of key i are [row_begin(i), row_begin(i + 1)).
  int32_t row_begin(size_t i) const { return row_begin_[i]; }
  const std::vector<ColumnBuilder>& cols() const { return cols_; }
  size_t HeapBytes() const;

 private:
  std::vector<ViewKey> keys_;
  std::vector<int32_t> row_begin_;  // size keys + 1
  std::vector<uint32_t> slots_;     // open addressing: key index + 1
  std::vector<ColumnBuilder> cols_;
};

/// Immutable sealed part of one view segment: keys sorted by (frame, obj)
/// with prefix row offsets and one ColumnVec per value-schema field.
/// Shared via shared_ptr so a probe can keep reading a segment that a
/// concurrent seal replaces. When built with compression the key index
/// lives in bit-packed lanes (access via key_frame/key_obj/row_begin_at);
/// a per-segment split-block Bloom filter over the keys short-circuits
/// probe misses before the key-index search.
struct ColumnarSegment {
  std::vector<int64_t> frames;     // per key, ascending (frame, obj)
  std::vector<int64_t> objs;       // per key
  std::vector<int32_t> row_begin;  // size keys+1: offsets into the columns
  // Bit-packed key index (compression on): frames/objs/row_begin above are
  // empty and these hold FOR-packed absolutes (O(1) random access).
  // row_begin packs residuals against the mean rows-per-key stride, so
  // one-row-per-key views (classifier outputs) collapse to width 0.
  bool packed_keys = false;
  int64_t frame_base = 0;
  int64_t row_stride = 0;    // rows per key, rounded
  int64_t row_res_base = 0;  // FOR base of the stride residuals
  BitPackedVec frames_p;
  BitPackedVec objs_p;
  BitPackedVec row_begin_p;

  std::vector<ColumnVec> cols;  // one per value-schema field
  BloomFilter bloom;            // over HashViewKey of every key
  int64_t obj_min = 0;  // FOR base of objs_p
  int64_t obj_max = 0;

  /// Footprint accounting (docs/STORAGE.md): raw = the plain columnar
  /// representation (16 B/key index + 4 B/key offsets + plain lanes),
  /// encoded = the representation actually held (codec lanes + packed
  /// keys + Bloom blocks). Equal but for the Bloom bytes when built
  /// without compression.
  int64_t raw_bytes = 0;
  int64_t encoded_bytes = 0;
  int codec_cols[ColumnVec::kNumCodecs] = {};

  int64_t key_frame(size_t i) const {
    return packed_keys ? frame_base + static_cast<int64_t>(frames_p.Get(i))
                       : frames[i];
  }
  int64_t key_obj(size_t i) const {
    return packed_keys ? obj_min + static_cast<int64_t>(objs_p.Get(i))
                       : objs[i];
  }
  ViewKey key(size_t i) const { return {key_frame(i), key_obj(i)}; }
  int32_t row_begin_at(size_t i) const {
    return packed_keys
               ? static_cast<int32_t>(
                     row_res_base +
                     row_stride * static_cast<int64_t>(i) +
                     static_cast<int64_t>(row_begin_p.Get(i)))
               : row_begin[i];
  }

  size_t num_keys() const {
    return packed_keys ? frames_p.size() : frames.size();
  }
  int64_t num_rows() const {
    size_t n = num_keys();
    return n == 0 ? 0 : row_begin_at(n);
  }

  /// Index of (frame, obj) in the sorted key arrays, searching from
  /// `hint` (a cursor from the previous probe of an ascending key batch);
  /// returns npos when absent. Amortizes to O(1) for sorted probes.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindKey(int64_t frame, int64_t obj, size_t* hint) const;

  /// Reconstructs the value row at flattened row index `r`.
  Row RowAt(int64_t r) const {
    Row row;
    row.reserve(cols.size());
    for (const ColumnVec& c : cols) {
      row.push_back(c.At(static_cast<size_t>(r)));
    }
    return row;
  }

  /// Heap bytes held (capacities of every lane, the key index and the
  /// Bloom blocks), as opposed to the accounted encoded_bytes.
  size_t HeapBytes() const;
};

/// Seals one segment: merges the sealed part (nullptr when none) with the
/// open builder's keys in (frame, obj) order, then packs the result as
/// PackSegment does. The lanes equal those of a segment built in one go
/// from the same keys and rows, so the encoded bytes are a function of the
/// segment's contents alone.
std::shared_ptr<const ColumnarSegment> SealSegment(
    const ColumnarSegment* sealed, const SegmentBuilder& open,
    const SegmentBuildOptions& options);

/// Packs sorted keys, their prefix row offsets (size keys + 1) and one
/// column per value field into a sealed segment. With compression on,
/// plain columns get the cheapest codec (columns that already carry one,
/// as read from an .evaseg file, keep it), the key index is bit-packed,
/// and a Bloom filter is built when `options` asks for one.
std::shared_ptr<const ColumnarSegment> PackSegment(
    const std::vector<ViewKey>& keys, std::vector<int32_t> row_begin,
    std::vector<ColumnVec> cols, const SegmentBuildOptions& options);

/// Rewrites one plain column in place with the cheapest applicable codec
/// (byte cost, deterministic tie-break toward the earlier Codec value).
/// Exposed for the codec differential tests; PackSegment calls it for
/// every column when compression is on.
void CompressColumn(ColumnVec* col);

}  // namespace eva::storage

#endif  // EVA_STORAGE_COLUMN_SEGMENT_H_
