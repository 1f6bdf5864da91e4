#include "storage/column_segment.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace eva::storage {

namespace {

// Integer magnitudes beyond this are not exactly representable as doubles;
// zone bounds for such columns are marked invalid rather than approximate.
constexpr double kDoubleExactLimit = 4503599627370496.0;  // 2^52

// Dictionary encoding falls back to raw Value storage past this
// cardinality: the dict + codes stop paying for themselves and the int32
// code lane risks pathological build cost on adversarial inputs.
constexpr size_t kMaxDictCardinality = 65536;

// Numeric dictionaries stop being considered past this distinct count.
constexpr size_t kMaxNumDictCardinality = 4096;

// String dictionaries up to this size are searched by a scan, not hashed.
constexpr size_t kScanDictSize = 8;

void SetNullBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

// Effective lane for codec selection: null rows carry the previous
// non-null value (leading nulls the first non-null), so nulls never break
// runs and never widen the FOR range. At() masks them via the null bitmap,
// so the substituted cell is never observed.
template <typename T, typename GetFn>
std::vector<T> EffectiveLane(const ColumnVec& col, size_t n, GetFn get) {
  std::vector<T> eff(n);
  // Find the first non-null value as the leading fill.
  T fill = T{};
  for (size_t i = 0; i < n; ++i) {
    if (!col.NullAt(i)) {
      fill = get(i);
      break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (col.NullAt(i)) {
      eff[i] = fill;
    } else {
      eff[i] = get(i);
      fill = eff[i];
    }
  }
  return eff;
}

template <typename T>
size_t CountRuns(const std::vector<T>& v) {
  if (v.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < v.size(); ++i) {
    if (!(v[i] == v[i - 1])) ++runs;
  }
  return runs;
}

template <typename T>
void BuildRuns(const std::vector<T>& v, std::vector<T>* values,
               std::vector<uint32_t>* ends) {
  values->clear();
  ends->clear();
  for (size_t i = 0; i < v.size(); ++i) {
    if (i == 0 || !(v[i] == v[i - 1])) {
      values->push_back(v[i]);
      ends->push_back(static_cast<uint32_t>(i + 1));
    } else {
      ends->back() = static_cast<uint32_t>(i + 1);
    }
  }
}

// Byte cost of the numeric dictionary codec: d >= 1 distinct values plus
// n bit-packed indexes.
size_t DictCost(size_t n, size_t d) {
  return d * 8 + BitPackedVec::PackedBytes(n, BitPackedVec::WidthFor(d - 1));
}

// First-occurrence dictionary over an integer-comparable lane: `dict` gets
// each distinct value once, (*codes)[i] the code of v[i]. The table is
// flat and open-addressed (slot = code + 1, 0 = empty) in thread-local
// scratch, since seals run on any thread. Returns false as soon as the
// dictionary passes the cardinality cap or costs more than `max_cost`
// bytes: its cost only grows with its size, so it can no longer win.
template <typename T>
bool BuildNumDict(const std::vector<T>& v, size_t max_cost,
                  std::vector<T>* dict, std::vector<uint64_t>* codes) {
  thread_local std::vector<uint32_t> slots;
  const size_t n = v.size();
  const size_t cap =
      std::bit_ceil(2 * std::min(n, kMaxNumDictCardinality + 1));
  const int shift = 64 - std::countr_zero(cap);
  slots.assign(cap, 0);
  dict->clear();
  codes->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const T x = v[i];
    size_t h = static_cast<size_t>(
        (static_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ULL) >> shift);
    uint32_t s;
    while ((s = slots[h]) != 0 && (*dict)[s - 1] != x) h = (h + 1) & (cap - 1);
    if (s == 0) {
      dict->push_back(x);
      if (dict->size() > kMaxNumDictCardinality ||
          DictCost(n, dict->size()) > max_cost) {
        return false;
      }
      s = static_cast<uint32_t>(dict->size());
      slots[h] = s;
    }
    (*codes)[i] = s - 1;
  }
  return true;
}

}  // namespace

const char* ColumnVec::CodecName(Codec c) {
  switch (c) {
    case Codec::kPlain:
      return "plain";
    case Codec::kFor:
      return "for";
    case Codec::kBitPack:
      return "bitpack";
    case Codec::kRle:
      return "rle";
    case Codec::kDictNum:
      return "dictnum";
    case Codec::kExpPack:
      return "exppack";
  }
  return "?";
}

size_t ColumnVec::EncodedBytes() const {
  size_t bytes = null_bits_.size() * 8;
  bytes += i64_.size() * 8;
  bytes += f64_.size() * 8;
  bytes += b8_.size();
  bytes += codes_.size() * 4;
  for (const std::string& s : dict_) bytes += s.size();
  bytes += raw_.size() * 16;  // nominal Value footprint
  bytes += packed_.SizeBytes();
  bytes += rle_end_.size() * 4;
  if (codec_ == Codec::kFor) bytes += 8;
  return bytes;
}

size_t ColumnVec::PlainBytes() const {
  size_t bytes = null_bits_.size() * 8;
  switch (enc_) {
    case Enc::kInt64:
    case Enc::kDouble:
      return bytes + 8 * n_;
    case Enc::kBool:
      return bytes + n_;
    case Enc::kDict:
      bytes += 4 * n_;
      for (const std::string& s : dict_) bytes += s.size();
      return bytes;
    case Enc::kValue:
      break;
  }
  return bytes + raw_.size() * 16;  // nominal Value footprint
}

size_t ColumnVec::HeapBytes() const {
  size_t bytes = null_bits_.capacity() * 8 + i64_.capacity() * 8 +
                 f64_.capacity() * 8 + b8_.capacity() +
                 codes_.capacity() * 4 +
                 dict_.capacity() * sizeof(std::string) +
                 raw_.capacity() * sizeof(Value) +
                 packed_.words().capacity() * 8 + rle_end_.capacity() * 4;
  // Dictionary strings too long for the small-string buffer own a heap
  // block (strings inside raw Values are not walked: O(rows) per call).
  for (const std::string& s : dict_) {
    if (s.capacity() > 15) bytes += s.capacity() + 1;
  }
  return bytes;
}

size_t ColumnarSegment::FindKey(int64_t frame, int64_t obj,
                                size_t* hint) const {
  const size_t n = num_keys();
  size_t lo = hint != nullptr ? *hint : 0;
  // A probe at or behind the cursor (an unsorted or repeated key)
  // restarts from the front.
  if (lo > n) lo = n;
  if (lo > 0 && (key_frame(lo - 1) > frame ||
                 (key_frame(lo - 1) == frame && key_obj(lo - 1) >= obj))) {
    lo = 0;
  }
  // Dense ascending batches land exactly on the cursor: O(1) per key.
  if (lo < n && key_frame(lo) == frame && key_obj(lo) == obj) {
    if (hint != nullptr) *hint = lo + 1;
    return lo;
  }
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    int64_t mf = key_frame(mid);
    if (mf < frame || (mf == frame && key_obj(mid) < obj)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n && key_frame(lo) == frame && key_obj(lo) == obj) {
    if (hint != nullptr) *hint = lo + 1;
    return lo;
  }
  if (hint != nullptr) *hint = lo;
  return npos;
}

void CompressColumn(ColumnVec* col) {
  if (col->codec_ != ColumnVec::Codec::kPlain) return;  // already encoded
  const size_t n = col->n_;
  if (n == 0 || col->enc_ == ColumnVec::Enc::kValue) return;

  switch (col->enc_) {
    case ColumnVec::Enc::kInt64: {
      auto eff = EffectiveLane<int64_t>(
          *col, n, [&](size_t i) { return col->i64_[i]; });
      int64_t mn = eff[0], mx = eff[0];
      for (int64_t v : eff) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      uint64_t range = static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
      int for_w = BitPackedVec::WidthFor(range);
      size_t cost_plain = 8 * n;
      size_t cost_for = BitPackedVec::PackedBytes(n, for_w) + 8;
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 12;  // 8 B value + 4 B run end
      // The dictionary must beat every other codec outright (ties go to
      // the earlier Codec value).
      std::vector<int64_t> dict;
      std::vector<uint64_t> idx;
      const bool dict_ok = BuildNumDict(
          eff, std::min({cost_plain, cost_for, cost_rle}) - 1, &dict, &idx);
      size_t cost_dict = dict_ok ? DictCost(n, dict.size()) : ~size_t{0};
      size_t best = std::min({cost_plain, cost_for, cost_rle, cost_dict});
      if (best == cost_plain) return;
      if (best == cost_for) {
        std::vector<uint64_t> deltas(n);
        for (size_t i = 0; i < n; ++i) {
          deltas[i] = static_cast<uint64_t>(eff[i]) -
                      static_cast<uint64_t>(mn);
        }
        col->packed_.Pack(deltas, for_w);
        col->for_base_ = mn;
        col->i64_.clear();
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kFor;
      } else if (best == cost_rle) {
        std::vector<int64_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->i64_ = std::move(run_vals);
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      } else {
        col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
        col->i64_ = std::move(dict);
        col->i64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kDictNum;
      }
      break;
    }
    case ColumnVec::Enc::kDouble: {
      // Codec equality is over bit patterns so -0.0 / NaN payloads survive
      // the round trip exactly.
      auto eff = EffectiveLane<uint64_t>(
          *col, n, [&](size_t i) { return DoubleBits(col->f64_[i]); });
      size_t cost_plain = 8 * n;
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 12;
      // Sign/exponent prefix dictionary + packed 52-bit mantissas: the
      // codec of last resort for high-entropy doubles (detector areas and
      // scores), whose 12-bit prefix takes a handful of values while the
      // mantissa is incompressible. At most 4096 distinct prefixes exist,
      // so a flat array indexed by prefix holds their codes.
      std::array<int16_t, 4096> exp_code;
      exp_code.fill(-1);
      std::vector<uint64_t> exp_dict;
      for (uint64_t b : eff) {
        int16_t& code = exp_code[b >> 52];
        if (code < 0) {
          code = static_cast<int16_t>(exp_dict.size());
          exp_dict.push_back(b >> 52);
        }
      }
      int exp_w = 52 + BitPackedVec::WidthFor(exp_dict.size() - 1);
      size_t cost_exp =
          exp_dict.size() * 8 + BitPackedVec::PackedBytes(n, exp_w);
      // The value dictionary must beat plain and RLE outright and at
      // least tie the prefix dictionary (ties go to the earlier Codec).
      std::vector<uint64_t> dict;
      std::vector<uint64_t> idx;
      const bool dict_ok = BuildNumDict(
          eff, std::min(std::min(cost_plain, cost_rle) - 1, cost_exp), &dict,
          &idx);
      size_t cost_dict = dict_ok ? DictCost(n, dict.size()) : ~size_t{0};
      size_t best = std::min({cost_plain, cost_rle, cost_dict, cost_exp});
      if (best == cost_plain) return;
      auto to_double = [](uint64_t b) {
        double d;
        std::memcpy(&d, &b, 8);
        return d;
      };
      if (best == cost_rle) {
        std::vector<uint64_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->f64_.clear();
        col->f64_.reserve(run_vals.size());
        for (uint64_t b : run_vals) col->f64_.push_back(to_double(b));
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      } else if (best == cost_dict) {
        col->packed_.Pack(idx, BitPackedVec::WidthFor(dict.size() - 1));
        col->f64_.clear();
        col->f64_.reserve(dict.size());
        for (uint64_t b : dict) col->f64_.push_back(to_double(b));
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kDictNum;
      } else {
        constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
        std::vector<uint64_t> lane(n);
        for (size_t i = 0; i < n; ++i) {
          lane[i] = (static_cast<uint64_t>(exp_code[eff[i] >> 52]) << 52) |
                    (eff[i] & kMantissa);
        }
        col->packed_.Pack(lane, exp_w);
        col->i64_.assign(exp_dict.begin(), exp_dict.end());
        col->f64_.clear();
        col->f64_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kExpPack;
      }
      break;
    }
    case ColumnVec::Enc::kBool: {
      auto eff = EffectiveLane<uint8_t>(
          *col, n, [&](size_t i) { return col->b8_[i]; });
      size_t cost_plain = n;
      size_t cost_pack = BitPackedVec::PackedBytes(n, 1);
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 5;
      size_t best = std::min({cost_plain, cost_pack, cost_rle});
      if (best == cost_plain) return;
      if (best == cost_pack) {
        std::vector<uint64_t> bits(n);
        for (size_t i = 0; i < n; ++i) bits[i] = eff[i] ? 1 : 0;
        col->packed_.Pack(bits, 1);
        col->b8_.clear();
        col->b8_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kBitPack;
      } else {
        std::vector<uint8_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->b8_ = std::move(run_vals);
        col->b8_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      }
      break;
    }
    case ColumnVec::Enc::kDict: {
      auto eff = EffectiveLane<int32_t>(
          *col, n, [&](size_t i) { return col->codes_[i]; });
      size_t cost_plain = 4 * n;
      int pack_w = BitPackedVec::WidthFor(
          col->dict_.empty() ? 0 : col->dict_.size() - 1);
      size_t cost_pack = BitPackedVec::PackedBytes(n, pack_w);
      size_t runs = CountRuns(eff);
      size_t cost_rle = runs * 8;  // 4 B code + 4 B run end
      size_t best = std::min({cost_plain, cost_pack, cost_rle});
      if (best == cost_plain) return;
      if (best == cost_pack) {
        std::vector<uint64_t> idx(n);
        for (size_t i = 0; i < n; ++i) {
          idx[i] = static_cast<uint64_t>(eff[i]);
        }
        col->packed_.Pack(idx, pack_w);
        col->codes_.clear();
        col->codes_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kBitPack;
      } else {
        std::vector<int32_t> run_vals;
        BuildRuns(eff, &run_vals, &col->rle_end_);
        col->codes_ = std::move(run_vals);
        col->codes_.shrink_to_fit();
        col->codec_ = ColumnVec::Codec::kRle;
      }
      break;
    }
    case ColumnVec::Enc::kValue:
      break;
  }
}

ZoneMapEntry::Fold ZoneMapEntry::Admit(DataType t) {
  if (!valid) return Fold::kSkip;
  if (all_null) {
    all_null = false;
    type = t;
    return Fold::kFirst;
  }
  if (t != type) {
    valid = false;  // mixed types: unbounded from here on
    return Fold::kSkip;
  }
  return Fold::kNext;
}

void ZoneMapEntry::Widen(double d, Fold fold) {
  if (fold == Fold::kFirst) {
    num_min = num_max = d;
  } else {
    num_min = std::min(num_min, d);
    num_max = std::max(num_max, d);
  }
}

void ZoneMapEntry::ObserveInt64(int64_t v) {
  const Fold fold = Admit(DataType::kInt64);
  if (fold == Fold::kSkip) return;
  if (std::llabs(v) > static_cast<int64_t>(kDoubleExactLimit)) {
    valid = false;
    return;
  }
  Widen(static_cast<double>(v), fold);
}

void ZoneMapEntry::ObserveDouble(double v) {
  const Fold fold = Admit(DataType::kDouble);
  if (fold == Fold::kSkip) return;
  if (std::isnan(v)) {
    valid = false;
    return;
  }
  Widen(v, fold);
}

void ZoneMapEntry::ObserveBool(bool v) {
  const Fold fold = Admit(DataType::kBool);
  if (fold != Fold::kSkip) Widen(v ? 1.0 : 0.0, fold);
}

void ZoneMapEntry::ObserveString(const std::string& v) {
  if (Admit(DataType::kString) != Fold::kSkip) strings.insert(v);
}

void ZoneMapEntry::Observe(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      ObserveNull();
      break;
    case DataType::kInt64:
      ObserveInt64(v.AsInt64());
      break;
    case DataType::kDouble:
      ObserveDouble(v.AsDouble());
      break;
    case DataType::kBool:
      ObserveBool(v.AsBool());
      break;
    case DataType::kString:
      ObserveString(v.AsString());
      break;
  }
}

void ColumnBuilder::StartTyped(DataType t) {
  // The all-null prefix so far becomes zero cells under set null bits.
  const size_t n = n_;
  lane_ = ColumnVec();
  lane_.n_ = n;
  lane_.null_bits_.assign((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) SetNullBit(&lane_.null_bits_, i);
  type_ = t;
  switch (t) {
    case DataType::kInt64:
      lane_.enc_ = ColumnVec::Enc::kInt64;
      lane_.i64_.resize(n, 0);
      break;
    case DataType::kDouble:
      lane_.enc_ = ColumnVec::Enc::kDouble;
      lane_.f64_.resize(n, 0);
      break;
    case DataType::kBool:
      lane_.enc_ = ColumnVec::Enc::kBool;
      lane_.b8_.resize(n, 0);
      break;
    case DataType::kString:
      lane_.enc_ = ColumnVec::Enc::kDict;
      lane_.codes_.resize(n, 0);
      break;
    case DataType::kNull:
      break;
  }
}

std::vector<Value> ColumnBuilder::RawCells() const {
  std::vector<Value> raw;
  raw.reserve(n_);
  for (size_t i = 0; i < n_; ++i) raw.push_back(At(i));
  return raw;
}

void ColumnBuilder::MakeRaw() {
  std::vector<Value> raw = RawCells();
  lane_ = ColumnVec();
  lane_.raw_ = std::move(raw);
  dict_index_.clear();
}

int32_t ColumnBuilder::CodeOf(const std::string& v) {
  std::vector<std::string>& dict = lane_.dict_;
  if (dict.size() <= kScanDictSize) {
    // Labels come from small vocabularies: a short scan beats hashing.
    // The index is built once the dictionary outgrows the scan.
    for (size_t k = 0; k < dict.size(); ++k) {
      if (dict[k] == v) return static_cast<int32_t>(k);
    }
    dict.push_back(v);
    return static_cast<int32_t>(dict.size() - 1);
  }
  if (dict_index_.size() != dict.size()) {
    dict_index_.clear();
    for (size_t k = 0; k < dict.size(); ++k) {
      dict_index_.emplace(dict[k], static_cast<int32_t>(k));
    }
  }
  auto it = dict_index_.find(v);
  if (it == dict_index_.end()) {
    it = dict_index_.emplace(v, static_cast<int32_t>(dict.size())).first;
    dict.push_back(v);
  }
  return it->second;
}

void ColumnBuilder::Append(const Value& v) {
  const bool null = v.is_null();
  if (null) return AppendNull();
  if (type_ == DataType::kNull) {
    StartTyped(v.type());
  } else if (v.type() != type_ && lane_.enc_ != ColumnVec::Enc::kValue) {
    MakeRaw();  // mixed types: raw Values from here on
  }
  if (lane_.enc_ == ColumnVec::Enc::kValue) {
    ++n_;
    lane_.raw_.push_back(v);
    return;
  }
  switch (lane_.enc_) {
    case ColumnVec::Enc::kInt64:
      return AppendInt64(v.AsInt64());
    case ColumnVec::Enc::kDouble:
      return AppendDouble(v.AsDouble());
    case ColumnVec::Enc::kBool:
      return AppendBool(v.AsBool());
    case ColumnVec::Enc::kDict:
      return AppendString(v.AsString());
    case ColumnVec::Enc::kValue:
      break;
  }
}

void ColumnBuilder::AppendRange(const ColumnVec& src, size_t begin,
                                size_t count, std::vector<int32_t>* remap) {
  const size_t end = begin + count;
  if (src.enc_ == ColumnVec::Enc::kValue) {
    for (size_t i = begin; i < end; ++i) Append(src.raw_[i]);
    return;
  }
  // Whole plain lanes without nulls onto a lane of the same type: bulk.
  if (src.codec_ == ColumnVec::Codec::kPlain && src.null_bits_.empty() &&
      src.enc_ == lane_.enc_ && src.enc_ != ColumnVec::Enc::kDict) {
    n_ += count;
    lane_.n_ = n_;
    if (!lane_.null_bits_.empty()) {
      lane_.null_bits_.resize((n_ + 63) / 64, 0);
    }
    auto bulk = [begin, end](auto& to, const auto& from) {
      to.insert(to.end(), from.begin() + static_cast<long>(begin),
                from.begin() + static_cast<long>(end));
    };
    switch (src.enc_) {
      case ColumnVec::Enc::kInt64:
        return bulk(lane_.i64_, src.i64_);
      case ColumnVec::Enc::kDouble:
        return bulk(lane_.f64_, src.f64_);
      default:
        return bulk(lane_.b8_, src.b8_);
    }
  }
  for (size_t i = begin; i < end; ++i) {
    if (src.NullAt(i)) {
      AppendNull();
      continue;
    }
    switch (src.enc_) {
      case ColumnVec::Enc::kInt64:
        AppendInt64(src.Int64At(i));
        break;
      case ColumnVec::Enc::kDouble:
        AppendDouble(src.DoubleAt(i));
        break;
      case ColumnVec::Enc::kBool:
        AppendBool(src.BoolAt(i));
        break;
      case ColumnVec::Enc::kDict: {
        const int32_t code = src.CodeAt(i);
        const std::string& str = src.dict_[static_cast<size_t>(code)];
        if (remap == nullptr || lane_.enc_ != ColumnVec::Enc::kDict) {
          AppendString(str);
          break;
        }
        if (remap->size() < src.dict_.size()) {
          remap->resize(src.dict_.size(), -1);
        }
        int32_t& own = (*remap)[static_cast<size_t>(code)];
        if (own < 0) own = CodeOf(str);
        GrowTyped();
        lane_.codes_.push_back(own);
        break;
      }
      case ColumnVec::Enc::kValue:
        break;
    }
  }
}

ColumnBuilder ColumnBuilder::Gather(const ColumnBuilder& src,
                                    std::span<const uint32_t> rows) {
  ColumnBuilder out;
  const size_t n = rows.size();
  out.n_ = n;
  out.type_ = src.type_;
  if (src.all_null()) return out;
  const ColumnVec& from = src.lane_;
  ColumnVec& to = out.lane_;
  to.enc_ = from.enc_;
  auto gather = [&rows, n](auto& dst, const auto& lane) {
    dst.resize(n);
    for (size_t k = 0; k < n; ++k) dst[k] = lane[rows[k]];
  };
  switch (from.enc_) {
    case ColumnVec::Enc::kInt64:
      gather(to.i64_, from.i64_);
      break;
    case ColumnVec::Enc::kDouble:
      gather(to.f64_, from.f64_);
      break;
    case ColumnVec::Enc::kBool:
      gather(to.b8_, from.b8_);
      break;
    case ColumnVec::Enc::kDict:
      to.dict_ = from.dict_;
      gather(to.codes_, from.codes_);
      break;
    case ColumnVec::Enc::kValue:
      gather(to.raw_, from.raw_);
      return out;
  }
  to.n_ = n;
  if (!from.null_bits_.empty()) {
    to.null_bits_.assign((n + 63) / 64, 0);
    for (size_t k = 0; k < n; ++k) {
      if (from.NullAt(rows[k])) SetNullBit(&to.null_bits_, k);
    }
  }
  return out;
}

void ColumnBuilder::Filter(const uint8_t* keep) {
  const size_t n = n_;
  size_t w = 0;
  // Branch-free compaction of a plain lane: cell r moves down to w <= r,
  // whose old value was already read.
  auto compact = [&](auto& lane) {
    auto* d = lane.data();
    w = 0;
    for (size_t r = 0; r < n; ++r) {
      d[w] = d[r];
      w += keep[r] != 0;
    }
    lane.resize(w);
  };
  switch (all_null() ? ColumnVec::Enc::kValue : lane_.enc_) {
    case ColumnVec::Enc::kInt64:
      compact(lane_.i64_);
      break;
    case ColumnVec::Enc::kDouble:
      compact(lane_.f64_);
      break;
    case ColumnVec::Enc::kBool:
      compact(lane_.b8_);
      break;
    case ColumnVec::Enc::kDict:
      compact(lane_.codes_);
      break;
    case ColumnVec::Enc::kValue:
      for (size_t r = 0; r < n; ++r) {
        if (keep[r] == 0) continue;
        if (!all_null() && w != r) lane_.raw_[w] = std::move(lane_.raw_[r]);
        ++w;
      }
      if (!all_null()) lane_.raw_.resize(w);
      n_ = w;
      return;
  }
  if (!lane_.null_bits_.empty()) {
    std::vector<uint64_t> bits((w + 63) / 64 + 1, 0);
    size_t j = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint64_t take = keep[r] != 0 ? 1 : 0;
      bits[j >> 6] |= (take & static_cast<uint64_t>(lane_.NullAt(r)))
                      << (j & 63);
      j += take;
    }
    bits.resize((w + 63) / 64);
    lane_.null_bits_ = std::move(bits);
  }
  n_ = w;
  lane_.n_ = w;
}

ColumnVec ColumnBuilder::Finish() const {
  if (all_null() || (lane_.enc_ == ColumnVec::Enc::kDict &&
                     lane_.dict_.size() > kMaxDictCardinality)) {
    ColumnVec raw;  // all-null or dictionary overflow: raw storage
    raw.raw_ = RawCells();
    return raw;
  }
  return lane_;  // a copy: sealed lanes carry no growth slack
}

size_t ColumnBuilder::HeapBytes() const {
  size_t bytes = lane_.HeapBytes();
  // Node-based string index: a node per distinct string plus buckets.
  bytes += dict_index_.size() * 64 + dict_index_.bucket_count() * 8;
  return bytes;
}

namespace {

// Appends the cells of `src` at `rows` to `dst`, folding each into `zone`.
void AppendCells(const ColumnBuilder& src, std::span<const uint32_t> rows,
                 ColumnBuilder* dst, ZoneMapEntry* zone) {
  const ColumnVec& lane = src.lane();
  for (uint32_t r : rows) {
    if (src.IsNull(r)) {
      dst->AppendNull();
      zone->ObserveNull();
      continue;
    }
    switch (lane.enc_) {
      case ColumnVec::Enc::kInt64:
        dst->AppendInt64(lane.i64_[r]);
        zone->ObserveInt64(lane.i64_[r]);
        break;
      case ColumnVec::Enc::kDouble:
        dst->AppendDouble(lane.f64_[r]);
        zone->ObserveDouble(lane.f64_[r]);
        break;
      case ColumnVec::Enc::kBool:
        dst->AppendBool(lane.b8_[r] != 0);
        zone->ObserveBool(lane.b8_[r] != 0);
        break;
      case ColumnVec::Enc::kDict: {
        const std::string& v = lane.dict_[static_cast<size_t>(lane.codes_[r])];
        dst->AppendString(v);
        zone->ObserveString(v);
        break;
      }
      case ColumnVec::Enc::kValue:
        dst->Append(lane.raw_[r]);
        zone->Observe(lane.raw_[r]);
        break;
    }
  }
}

}  // namespace

void SegmentBuilder::Append(const ViewKey& key,
                            std::span<const ColumnBuilder> src,
                            std::span<const uint32_t> rows,
                            SegmentZone* zone) {
  if ((keys_.size() + 1) * 2 > slots_.size()) {
    // Keep the flat index at most half full.
    std::vector<uint32_t> slots(std::max<size_t>(16, slots_.size() * 2), 0);
    const size_t mask = slots.size() - 1;
    for (size_t k = 0; k < keys_.size(); ++k) {
      size_t h = HashViewKey(keys_[k].frame, keys_[k].obj) & mask;
      while (slots[h] != 0) h = (h + 1) & mask;
      slots[h] = static_cast<uint32_t>(k + 1);
    }
    slots_ = std::move(slots);
  }
  const size_t mask = slots_.size() - 1;
  size_t h = HashViewKey(key.frame, key.obj) & mask;
  while (slots_[h] != 0) h = (h + 1) & mask;
  slots_[h] = static_cast<uint32_t>(keys_.size() + 1);
  keys_.push_back(key);
  zone->ObserveKey(key);

  for (size_t c = 0; c < cols_.size(); ++c) {
    ZoneMapEntry* z = &zone->cols[c];
    if (c < src.size()) {
      AppendCells(src[c], rows, &cols_[c], z);
      continue;
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      cols_[c].AppendNull();
      z->ObserveNull();
    }
  }
  row_begin_.push_back(row_begin_.back() +
                       static_cast<int32_t>(rows.size()));
}

size_t SegmentBuilder::Find(const ViewKey& key) const {
  if (slots_.empty()) return npos;
  const size_t mask = slots_.size() - 1;
  for (size_t h = HashViewKey(key.frame, key.obj) & mask;;
       h = (h + 1) & mask) {
    const uint32_t slot = slots_[h];
    if (slot == 0) return npos;
    if (keys_[slot - 1] == key) return slot - 1;
  }
}

size_t SegmentBuilder::HeapBytes() const {
  size_t bytes = keys_.capacity() * sizeof(ViewKey) +
                 row_begin_.capacity() * 4 + slots_.capacity() * 4 +
                 cols_.capacity() * sizeof(ColumnBuilder);
  for (const ColumnBuilder& c : cols_) bytes += c.HeapBytes();
  return bytes;
}

size_t ColumnarSegment::HeapBytes() const {
  size_t bytes = sizeof(ColumnarSegment) + frames.capacity() * 8 +
                 objs.capacity() * 8 + row_begin.capacity() * 4 +
                 (frames_p.words().capacity() + objs_p.words().capacity() +
                  row_begin_p.words().capacity()) *
                     8 +
                 cols.capacity() * sizeof(ColumnVec) + bloom.SizeBytes();
  for (const ColumnVec& c : cols) bytes += c.HeapBytes();
  return bytes;
}

std::shared_ptr<const ColumnarSegment> SealSegment(
    const ColumnarSegment* sealed, const SegmentBuilder& open,
    const SegmentBuildOptions& options) {
  // Open keys in (frame, obj) order; Put guarantees they are disjoint
  // from the sealed ones. Put nearly always appends them in order, so
  // they are sorted only when one is found out of order.
  std::vector<uint32_t> order(open.num_keys());
  std::iota(order.begin(), order.end(), 0);
  bool in_order = true;
  for (size_t i = 1; i < order.size() && in_order; ++i) {
    in_order = open.key(i - 1) < open.key(i);
  }
  if (!in_order) {
    std::sort(order.begin(), order.end(), [&open](uint32_t a, uint32_t b) {
      return open.key(a) < open.key(b);
    });
  }
  std::vector<ColumnVec> lanes;
  lanes.reserve(open.num_cols());
  if (sealed == nullptr && in_order) {
    // Keys were put in order: the open lanes are the sealed ones.
    std::vector<int32_t> row_begin(open.num_keys() + 1);
    for (size_t k = 0; k <= open.num_keys(); ++k) {
      row_begin[k] = open.row_begin(k);
    }
    for (const ColumnBuilder& c : open.cols()) lanes.push_back(c.Finish());
    return PackSegment(open.keys(), std::move(row_begin), std::move(lanes),
                       options);
  }
  const size_t n_old = sealed != nullptr ? sealed->num_keys() : 0;
  std::vector<ViewKey> keys;
  keys.reserve(n_old + order.size());
  std::vector<int32_t> row_begin;
  row_begin.reserve(n_old + order.size() + 1);
  row_begin.push_back(0);
  std::vector<ColumnBuilder> cols(open.num_cols());

  // Two-way merge of the sorted runs; each key's rows are appended in key
  // order, as a one-shot build would lay them out.
  auto append = [&cols, &row_begin](const auto& from, int32_t begin,
                                    int32_t end) {
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].AppendRange(from[c], static_cast<size_t>(begin),
                          static_cast<size_t>(end - begin));
    }
    row_begin.push_back(row_begin.back() + (end - begin));
  };
  size_t i = 0, j = 0;
  while (i < n_old || j < order.size()) {
    if (j == order.size() ||
        (i < n_old && sealed->key(i) < open.key(order[j]))) {
      keys.push_back(sealed->key(i));
      append(sealed->cols, sealed->row_begin_at(i),
             sealed->row_begin_at(i + 1));
      ++i;
    } else {
      const size_t k = order[j++];
      keys.push_back(open.key(k));
      append(open.cols(), open.row_begin(k), open.row_begin(k + 1));
    }
  }
  for (const ColumnBuilder& c : cols) lanes.push_back(c.Finish());
  return PackSegment(keys, std::move(row_begin), std::move(lanes), options);
}

std::shared_ptr<const ColumnarSegment> PackSegment(
    const std::vector<ViewKey>& keys, std::vector<int32_t> row_begin,
    std::vector<ColumnVec> cols, const SegmentBuildOptions& options) {
  auto seg = std::make_shared<ColumnarSegment>();
  const size_t nkeys = keys.size();
  seg->frames.reserve(nkeys);
  seg->objs.reserve(nkeys);
  for (const ViewKey& key : keys) {
    seg->frames.push_back(key.frame);
    seg->objs.push_back(key.obj);
  }
  if (nkeys > 0) {
    auto [lo, hi] = std::minmax_element(seg->objs.begin(), seg->objs.end());
    seg->obj_min = *lo;
    seg->obj_max = *hi;
  }
  seg->row_begin = std::move(row_begin);
  seg->cols = std::move(cols);
  const int64_t rows_total = seg->row_begin.back();

  // Footprint accounting against the plain representation, then codecs.
  int64_t raw = static_cast<int64_t>(nkeys) * 16 +
                static_cast<int64_t>(seg->row_begin.size()) * 4;
  int64_t encoded = 0;
  for (const ColumnVec& col : seg->cols) {
    raw += static_cast<int64_t>(col.PlainBytes());
  }
  if (options.compress) {
    for (ColumnVec& col : seg->cols) CompressColumn(&col);
  }
  for (const ColumnVec& col : seg->cols) {
    encoded += static_cast<int64_t>(col.EncodedBytes());
    seg->codec_cols[static_cast<int>(col.codec_)] += 1;
  }
  if (options.compress && nkeys > 0) {
    // Bit-pack the key index: frames/objs as FOR deltas, row offsets as
    // fixed-width absolutes (prefix sums stay O(1) random access).
    seg->frame_base = seg->frames.front();
    uint64_t frange = static_cast<uint64_t>(seg->frames.back()) -
                      static_cast<uint64_t>(seg->frame_base);
    uint64_t orange = static_cast<uint64_t>(seg->obj_max) -
                      static_cast<uint64_t>(seg->obj_min);
    std::vector<uint64_t> tmp(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(seg->frames[i]) -
               static_cast<uint64_t>(seg->frame_base);
    }
    seg->frames_p.Pack(tmp, BitPackedVec::WidthFor(frange));
    for (size_t i = 0; i < nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(seg->objs[i]) -
               static_cast<uint64_t>(seg->obj_min);
    }
    seg->objs_p.Pack(tmp, BitPackedVec::WidthFor(orange));
    // Row offsets pack as residuals against the mean rows-per-key stride
    // (prefix sums stay O(1) random access). Views with exactly one row
    // per key — every classifier output — collapse to width 0.
    const int64_t stride =
        (rows_total + static_cast<int64_t>(nkeys) / 2) /
        static_cast<int64_t>(nkeys);
    int64_t res_min = 0, res_max = 0;
    for (size_t i = 0; i <= nkeys; ++i) {
      int64_t res = static_cast<int64_t>(seg->row_begin[i]) -
                    stride * static_cast<int64_t>(i);
      if (i == 0 || res < res_min) res_min = res;
      if (i == 0 || res > res_max) res_max = res;
    }
    tmp.resize(nkeys + 1);
    for (size_t i = 0; i <= nkeys; ++i) {
      tmp[i] = static_cast<uint64_t>(
          static_cast<int64_t>(seg->row_begin[i]) -
          stride * static_cast<int64_t>(i) - res_min);
    }
    seg->row_begin_p.Pack(
        tmp, BitPackedVec::WidthFor(
                 static_cast<uint64_t>(res_max - res_min)));
    seg->row_stride = stride;
    seg->row_res_base = res_min;
    seg->packed_keys = true;
    encoded += static_cast<int64_t>(seg->frames_p.SizeBytes() +
                                    seg->objs_p.SizeBytes() +
                                    seg->row_begin_p.SizeBytes()) +
               32;  // frame/obj FOR bases + row stride/residual base
    seg->frames.clear();
    seg->frames.shrink_to_fit();
    seg->objs.clear();
    seg->objs.shrink_to_fit();
    seg->row_begin.clear();
    seg->row_begin.shrink_to_fit();
  } else {
    encoded += static_cast<int64_t>(nkeys) * 16 +
               static_cast<int64_t>(seg->row_begin.size()) * 4;
  }

  if (options.bloom_bits_per_key > 0 && nkeys > 0) {
    std::vector<uint64_t> hashes(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      hashes[i] = HashViewKey(seg->key_frame(i), seg->key_obj(i));
    }
    seg->bloom.Build(hashes, options.bloom_bits_per_key);
    encoded += static_cast<int64_t>(seg->bloom.SizeBytes());
  }

  seg->raw_bytes = raw;
  seg->encoded_bytes = encoded;
  return seg;
}

}  // namespace eva::storage
