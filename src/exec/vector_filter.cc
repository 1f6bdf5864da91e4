#include "exec/vector_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace eva::exec {

namespace {

using expr::CompareOp;
using expr::Expr;
using expr::ExprKind;

bool CmpKeep(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

int RankOf(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 4;
}

bool IsColumnish(const Expr& e) {
  // After the optimizer's rewrite a UDF call reads the output column named
  // after the UDF, so both kinds compile to a column operand.
  return e.kind() == ExprKind::kColumn || e.kind() == ExprKind::kUdfCall;
}

}  // namespace

int FilterProgram::CompileNode(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      // EvaluateBool semantics: NULL -> false; non-bool literal in boolean
      // position is a runtime error — keep the scalar path for it.
      Instr ins;
      ins.code = OpCode::kConst;
      if (e.value().is_null()) {
        ins.bval = false;
      } else if (e.value().type() == DataType::kBool) {
        ins.bval = e.value().AsBool();
      } else {
        return -1;
      }
      ins.dst = num_regs_++;
      instrs_.push_back(std::move(ins));
      return instrs_.back().dst;
    }
    case ExprKind::kColumn:
    case ExprKind::kUdfCall: {
      int idx = schema.IndexOf(e.name());
      if (idx < 0) return -1;  // scalar path raises the bind error
      Instr ins;
      ins.code = OpCode::kBoolCol;
      ins.col_a = idx;
      ins.dst = num_regs_++;
      instrs_.push_back(std::move(ins));
      return instrs_.back().dst;
    }
    case ExprKind::kCompare: {
      const Expr& l = *e.children()[0];
      const Expr& r = *e.children()[1];
      Instr ins;
      ins.cmp = e.op();
      if (IsColumnish(l) && r.kind() == ExprKind::kLiteral) {
        ins.code = OpCode::kCmpColLit;
        ins.col_a = schema.IndexOf(l.name());
        ins.lit = r.value();
        if (ins.col_a < 0) return -1;
      } else if (l.kind() == ExprKind::kLiteral && IsColumnish(r)) {
        ins.code = OpCode::kCmpColLit;
        ins.lit_left = true;
        ins.col_a = schema.IndexOf(r.name());
        ins.lit = l.value();
        if (ins.col_a < 0) return -1;
      } else if (IsColumnish(l) && IsColumnish(r)) {
        ins.code = OpCode::kCmpColCol;
        ins.col_a = schema.IndexOf(l.name());
        ins.col_b = schema.IndexOf(r.name());
        if (ins.col_a < 0 || ins.col_b < 0) return -1;
      } else {
        return -1;  // nested/odd comparison: scalar path
      }
      ins.dst = num_regs_++;
      instrs_.push_back(std::move(ins));
      return instrs_.back().dst;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      int a = CompileNode(*e.children()[0], schema);
      if (a < 0) return -1;
      int b = CompileNode(*e.children()[1], schema);
      if (b < 0) return -1;
      Instr ins;
      ins.code = e.kind() == ExprKind::kAnd ? OpCode::kAnd : OpCode::kOr;
      ins.src_a = a;
      ins.src_b = b;
      ins.dst = num_regs_++;
      instrs_.push_back(std::move(ins));
      return instrs_.back().dst;
    }
    case ExprKind::kNot: {
      int a = CompileNode(*e.children()[0], schema);
      if (a < 0) return -1;
      Instr ins;
      ins.code = OpCode::kNot;
      ins.src_a = a;
      ins.dst = num_regs_++;
      instrs_.push_back(std::move(ins));
      return instrs_.back().dst;
    }
    default:
      return -1;  // kStar / kCountStar never appear in valid predicates
  }
}

std::optional<FilterProgram> FilterProgram::Compile(const Expr& e,
                                                    const Schema& schema) {
  FilterProgram p;
  int root = p.CompileNode(e, schema);
  if (root < 0) return std::nullopt;
  // The last instruction's register is the root by construction.
  return p;
}

namespace {

int Compare3(int64_t a, int64_t b) { return a == b ? 0 : (a < b ? -1 : 1); }
// Value::Compare's numeric rule: NaN is unordered and compares as greater.
int Compare3(double a, double b) { return a == b ? 0 : (a < b ? -1 : 1); }

// dst[r] = the cell is non-null && cmp(cell, lit) — or cmp(lit, cell)
// when `lit_left` — exactly Value::Compare per cell, evaluated on the
// typed lane. `lit` is non-null.
void CompareColumnLiteral(const ColumnBuilder& col, CompareOp op,
                          const Value& lit, bool lit_left, size_t n,
                          uint8_t* dst) {
  if (col.all_null()) return;  // dst stays all-false
  const storage::ColumnVec& lane = col.lane();
  auto keep = [op, lit_left](auto cell, auto b) {
    return CmpKeep(op, lit_left ? Compare3(b, cell) : Compare3(cell, b));
  };
  // Cells of a rank other than the literal's compare as a constant.
  auto by_rank = [&](int cell_rank) {
    const int lit_rank = RankOf(lit.type());
    const bool less = lit_left ? lit_rank < cell_rank : cell_rank < lit_rank;
    const uint8_t v = CmpKeep(op, less ? -1 : 1) ? 1 : 0;
    for (size_t r = 0; r < n; ++r) dst[r] = v & !lane.NullAt(r);
  };
  switch (lane.enc_) {
    case storage::ColumnVec::Enc::kInt64:
      if (lit.type() == DataType::kInt64) {
        const int64_t b = lit.AsInt64();
        for (size_t r = 0; r < n; ++r) {
          dst[r] = !lane.NullAt(r) && keep(lane.i64_[r], b);
        }
      } else if (lit.type() == DataType::kDouble) {
        const double b = lit.AsDouble();
        for (size_t r = 0; r < n; ++r) {
          dst[r] = !lane.NullAt(r) &&
                   keep(static_cast<double>(lane.i64_[r]), b);
        }
      } else {
        by_rank(2);
      }
      return;
    case storage::ColumnVec::Enc::kDouble:
      if (lit.is_numeric()) {
        const double b = lit.AsDouble();
        for (size_t r = 0; r < n; ++r) {
          dst[r] = !lane.NullAt(r) && keep(lane.f64_[r], b);
        }
      } else {
        by_rank(2);
      }
      return;
    case storage::ColumnVec::Enc::kBool:
      if (lit.type() == DataType::kBool) {
        const int64_t b = lit.AsBool() ? 1 : 0;
        for (size_t r = 0; r < n; ++r) {
          dst[r] = !lane.NullAt(r) && keep(int64_t{lane.b8_[r]}, b);
        }
      } else {
        by_rank(1);
      }
      return;
    case storage::ColumnVec::Enc::kDict: {
      // One verdict per dictionary entry, then a lookup per cell.
      std::vector<uint8_t> verdict(lane.dict_.size());
      for (size_t k = 0; k < verdict.size(); ++k) {
        const Value cell(lane.dict_[k]);
        verdict[k] = CmpKeep(op, lit_left ? lit.Compare(cell)
                                          : cell.Compare(lit))
                         ? 1
                         : 0;
      }
      for (size_t r = 0; r < n; ++r) {
        dst[r] = !lane.NullAt(r) &&
                 verdict[static_cast<size_t>(lane.codes_[r])];
      }
      return;
    }
    case storage::ColumnVec::Enc::kValue:
      for (size_t r = 0; r < n; ++r) {
        const Value& v = lane.raw_[r];
        dst[r] = !v.is_null() &&
                 CmpKeep(op, lit_left ? lit.Compare(v) : v.Compare(lit));
      }
      return;
  }
}

// dst[r] = the bool cell (NULL -> 0); a non-null non-bool cell is an error.
Status BoolColumn(const ColumnBuilder& col, size_t n, uint8_t* dst) {
  if (col.all_null()) return Status::OK();  // dst stays all-false
  const storage::ColumnVec& lane = col.lane();
  for (size_t r = 0; r < n; ++r) {
    if (lane.enc_ == storage::ColumnVec::Enc::kBool) {
      dst[r] = !lane.NullAt(r) && lane.b8_[r] != 0;
      continue;
    }
    const bool null = lane.enc_ == storage::ColumnVec::Enc::kValue
                          ? lane.raw_[r].is_null()
                          : lane.NullAt(r);
    if (null) {
      dst[r] = 0;
    } else if (lane.enc_ == storage::ColumnVec::Enc::kValue &&
               lane.raw_[r].type() == DataType::kBool) {
      dst[r] = lane.raw_[r].AsBool();
    } else {
      // The scalar interpreter may or may not hit this cell (AND/OR
      // short-circuit); the caller reruns the chunk scalar to find out.
      return Status::InvalidArgument("non-boolean cell in logical position");
    }
  }
  return Status::OK();
}

}  // namespace

Status FilterProgram::Execute(const Chunk& chunk,
                              std::vector<uint8_t>* keep) const {
  const size_t n = chunk.num_rows();
  keep->assign(n, 0);
  if (n == 0 || instrs_.empty()) return Status::OK();
  // One mask per register, flat buffer.
  std::vector<uint8_t> regs(static_cast<size_t>(num_regs_) * n, 0);
  auto reg = [&](int r) { return regs.data() + static_cast<size_t>(r) * n; };
  for (const Instr& ins : instrs_) {
    uint8_t* dst = reg(ins.dst);
    switch (ins.code) {
      case OpCode::kCmpColLit:
        if (ins.lit.is_null()) break;  // NULL comparand: all false
        CompareColumnLiteral(chunk.col(static_cast<size_t>(ins.col_a)),
                             ins.cmp, ins.lit, ins.lit_left, n, dst);
        break;
      case OpCode::kCmpColCol: {
        const ColumnBuilder& ca = chunk.col(static_cast<size_t>(ins.col_a));
        const ColumnBuilder& cb = chunk.col(static_cast<size_t>(ins.col_b));
        for (size_t r = 0; r < n; ++r) {
          if (ca.IsNull(r) || cb.IsNull(r)) continue;
          dst[r] = CmpKeep(ins.cmp, ca.At(r).Compare(cb.At(r)));
        }
        break;
      }
      case OpCode::kBoolCol:
        EVA_RETURN_IF_ERROR(
            BoolColumn(chunk.col(static_cast<size_t>(ins.col_a)), n, dst));
        break;
      case OpCode::kConst:
        std::memset(dst, ins.bval ? 1 : 0, n);
        break;
      case OpCode::kAnd: {
        const uint8_t* a = reg(ins.src_a);
        const uint8_t* b = reg(ins.src_b);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] & b[r];
        break;
      }
      case OpCode::kOr: {
        const uint8_t* a = reg(ins.src_a);
        const uint8_t* b = reg(ins.src_b);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] | b[r];
        break;
      }
      case OpCode::kNot: {
        const uint8_t* a = reg(ins.src_a);
        for (size_t r = 0; r < n; ++r) dst[r] = a[r] ^ 1;
        break;
      }
    }
  }
  const uint8_t* root = reg(instrs_.back().dst);
  std::memcpy(keep->data(), root, n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Zone-map satisfiability
// ---------------------------------------------------------------------------

namespace {

constexpr double kDoubleExactLimit = 4503599627370496.0;  // 2^52

// Resolves the zone summary of a referenced column. `synth` is storage for
// the synthesized "id"/"obj" zones (derived from the key arrays).
const storage::ZoneMapEntry* ResolveZone(const std::string& name,
                                         const storage::SegmentZone& seg,
                                         const Schema& value_schema,
                                         storage::ZoneMapEntry* synth) {
  int idx = value_schema.IndexOf(name);
  if (idx >= 0 && static_cast<size_t>(idx) < seg.cols.size()) {
    return &seg.cols[static_cast<size_t>(idx)];
  }
  if (seg.keys == 0) return nullptr;
  if (name == "id" || name == "obj") {
    int64_t lo = name == "id" ? seg.frame_min : seg.obj_min;
    int64_t hi = name == "id" ? seg.frame_max : seg.obj_max;
    synth->valid = std::llabs(lo) <= static_cast<int64_t>(kDoubleExactLimit) &&
                   std::llabs(hi) <= static_cast<int64_t>(kDoubleExactLimit);
    synth->type = DataType::kInt64;
    synth->has_nulls = false;
    synth->all_null = false;
    synth->num_min = static_cast<double>(lo);
    synth->num_max = static_cast<double>(hi);
    return synth;
  }
  return nullptr;
}

// Can compare(zone-column op lit) be true for some stored row?
ZoneVerdict CompareZone(const storage::ZoneMapEntry& z, CompareOp op,
                        const Value& lit) {
  if (!z.valid) return ZoneVerdict::kMaybe;
  // Every cell NULL, or a NULL comparand: the comparison is false on every
  // row (never an error), so the segment can never satisfy it.
  if (z.all_null || lit.is_null()) return ZoneVerdict::kNever;
  int zr = RankOf(z.type);
  int lr = RankOf(lit.type());
  if (zr != lr) {
    // Cross-type comparisons are a rank constant for every non-null cell.
    int c = zr < lr ? -1 : 1;
    return CmpKeep(op, c) ? ZoneVerdict::kMaybe : ZoneVerdict::kNever;
  }
  if (z.type == DataType::kString) {
    if (z.strings.empty()) return ZoneVerdict::kMaybe;  // defensive
    const std::string& lv = lit.AsString();
    bool sat = true;
    switch (op) {
      case CompareOp::kEq:
        sat = z.strings.count(lv) > 0;
        break;
      case CompareOp::kNe:
        sat = !(z.strings.size() == 1 && *z.strings.begin() == lv);
        break;
      case CompareOp::kLt:
        sat = *z.strings.begin() < lv;
        break;
      case CompareOp::kLe:
        sat = *z.strings.begin() <= lv;
        break;
      case CompareOp::kGt:
        sat = *z.strings.rbegin() > lv;
        break;
      case CompareOp::kGe:
        sat = *z.strings.rbegin() >= lv;
        break;
    }
    return sat ? ZoneVerdict::kMaybe : ZoneVerdict::kNever;
  }
  // Numeric / bool ranks: reason over [num_min, num_max]. Bail when the
  // comparand cannot be represented exactly as a double.
  double lv = 0;
  if (lit.type() == DataType::kBool) {
    lv = lit.AsBool() ? 1.0 : 0.0;
  } else if (lit.type() == DataType::kInt64) {
    if (std::llabs(lit.AsInt64()) > static_cast<int64_t>(kDoubleExactLimit)) {
      return ZoneVerdict::kMaybe;
    }
    lv = static_cast<double>(lit.AsInt64());
  } else {
    lv = lit.AsDouble();
    if (std::isnan(lv)) return ZoneVerdict::kMaybe;
  }
  bool sat = true;
  switch (op) {
    case CompareOp::kEq:
      sat = lv >= z.num_min && lv <= z.num_max;
      break;
    case CompareOp::kNe:
      sat = !(z.num_min == z.num_max && z.num_min == lv);
      break;
    case CompareOp::kLt:
      sat = z.num_min < lv;
      break;
    case CompareOp::kLe:
      sat = z.num_min <= lv;
      break;
    case CompareOp::kGt:
      sat = z.num_max > lv;
      break;
    case CompareOp::kGe:
      sat = z.num_max >= lv;
      break;
  }
  return sat ? ZoneVerdict::kMaybe : ZoneVerdict::kNever;
}

}  // namespace

ZoneVerdict ZoneCheck(const Expr& e, const storage::SegmentZone& seg,
                      const Schema& value_schema) {
  switch (e.kind()) {
    case ExprKind::kAnd: {
      // False for all rows as soon as either conjunct is.
      if (ZoneCheck(*e.children()[0], seg, value_schema) ==
              ZoneVerdict::kNever ||
          ZoneCheck(*e.children()[1], seg, value_schema) ==
              ZoneVerdict::kNever) {
        return ZoneVerdict::kNever;
      }
      return ZoneVerdict::kMaybe;
    }
    case ExprKind::kOr: {
      if (ZoneCheck(*e.children()[0], seg, value_schema) ==
              ZoneVerdict::kNever &&
          ZoneCheck(*e.children()[1], seg, value_schema) ==
              ZoneVerdict::kNever) {
        return ZoneVerdict::kNever;
      }
      return ZoneVerdict::kMaybe;
    }
    case ExprKind::kNot:
      // NOT(child-false-everywhere) is true everywhere — satisfiable. A
      // sharper answer needs an "always" lattice point; not worth it.
      return ZoneVerdict::kMaybe;
    case ExprKind::kLiteral: {
      const Value& v = e.value();
      if (v.is_null()) return ZoneVerdict::kNever;  // EvaluateBool -> false
      if (v.type() == DataType::kBool) {
        return v.AsBool() ? ZoneVerdict::kMaybe : ZoneVerdict::kNever;
      }
      return ZoneVerdict::kMaybe;  // scalar error: must surface, never skip
    }
    case ExprKind::kColumn:
    case ExprKind::kUdfCall: {
      storage::ZoneMapEntry synth;
      const storage::ZoneMapEntry* z =
          ResolveZone(e.name(), seg, value_schema, &synth);
      if (z == nullptr || !z->valid) return ZoneVerdict::kMaybe;
      if (z->all_null) return ZoneVerdict::kNever;  // EvaluateBool -> false
      if (z->type == DataType::kBool && z->num_max == 0) {
        return ZoneVerdict::kNever;  // every cell is literally false
      }
      // Non-bool cells would be a scalar error; never skip those.
      return ZoneVerdict::kMaybe;
    }
    case ExprKind::kCompare: {
      const Expr& l = *e.children()[0];
      const Expr& r = *e.children()[1];
      storage::ZoneMapEntry synth;
      if (IsColumnish(l) && r.kind() == ExprKind::kLiteral) {
        const storage::ZoneMapEntry* z =
            ResolveZone(l.name(), seg, value_schema, &synth);
        if (z == nullptr) return ZoneVerdict::kMaybe;
        return CompareZone(*z, e.op(), r.value());
      }
      if (l.kind() == ExprKind::kLiteral && IsColumnish(r)) {
        const storage::ZoneMapEntry* z =
            ResolveZone(r.name(), seg, value_schema, &synth);
        if (z == nullptr) return ZoneVerdict::kMaybe;
        return CompareZone(*z, expr::MirrorOp(e.op()), l.value());
      }
      return ZoneVerdict::kMaybe;
    }
    default:
      return ZoneVerdict::kMaybe;
  }
}

}  // namespace eva::exec
