#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "baselines/fun_cache.h"
#include "exec/vector_filter.h"
#include "fault/fault_injector.h"
#include "obs/event_log.h"
#include "obs/profiler.h"
#include "runtime/morsel.h"
#include "runtime/thread_pool.h"
#include "storage/view_store.h"

namespace eva::exec {

namespace {

using catalog::UdfDef;
using catalog::UdfKind;
using plan::PlanKind;
using storage::MaterializedView;
using storage::ViewKey;

// ---------------------------------------------------------------------------
// Observability plumbing. Registry cells are resolved once per operator
// instance (label rendering + map lookup happen at build time); the hot
// path pays one null check per event. All of this is inert when
// ctx->obs_registry is null.
// ---------------------------------------------------------------------------

// Cached per-UDF counters shared by Apply / CondApply / ViewJoin.
struct UdfObsCounters {
  obs::Counter* invocations = nullptr;  // fresh model evaluations
  obs::Counter* reused = nullptr;       // tuples answered from a view/cache
  obs::Counter* retries = nullptr;      // transient-fault retry attempts
};

UdfObsCounters MakeUdfCounters(ExecContext* ctx, const std::string& udf) {
  UdfObsCounters c;
  if (ctx->obs_registry == nullptr) return c;
  c.invocations = ctx->obs_registry->GetCounter(
      "eva_udf_invocations_total", "Fresh UDF model evaluations",
      {{"udf", udf}});
  c.reused = ctx->obs_registry->GetCounter(
      "eva_udf_reused_total",
      "UDF results satisfied from a materialized view or cache",
      {{"udf", udf}});
  c.retries = ctx->obs_registry->GetCounter(
      "eva_udf_retries_total",
      "UDF evaluation retries after injected transient faults",
      {{"udf", udf}});
  return c;
}

// Per-morsel UDF bookkeeping. The tally is added to the (morsel-local)
// context once, when it goes out of scope — after a complete morsel and
// after a failing row alike — so QueryMetrics, OperatorStats and registry
// counters end up exactly where per-row increments would have put them.
class UdfTally {
 public:
  UdfTally(ExecContext* ctx, const std::string& udf,
           const UdfObsCounters& counters)
      : ctx_(ctx), udf_(udf), counters_(counters) {}
  UdfTally(const UdfTally&) = delete;
  UdfTally& operator=(const UdfTally&) = delete;
  ~UdfTally() {
    if (fresh > 0) {
      ctx_->metrics->invocations[udf_] += fresh;
      if (ctx_->active_stats != nullptr) {
        ctx_->active_stats->udf_invocations += fresh;
      }
      if (counters_.invocations != nullptr) {
        counters_.invocations->Increment(static_cast<double>(fresh));
      }
    }
    if (cached > 0) {
      ctx_->metrics->invocations[udf_] += cached;
      ctx_->metrics->reused[udf_] += cached;
      if (ctx_->active_stats != nullptr) {
        ctx_->active_stats->rows_reused += cached;
      }
      if (counters_.reused != nullptr) {
        counters_.reused->Increment(static_cast<double>(cached));
      }
    }
  }

  int64_t fresh = 0;   // model evaluations
  int64_t cached = 0;  // FunCache hits

 private:
  ExecContext* ctx_;
  const std::string& udf_;
  const UdfObsCounters& counters_;
};

// True when output row i came from input row i, for every one of n rows.
bool IsIdentity(const std::vector<uint32_t>& src, size_t n) {
  if (src.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (src[i] != i) return false;
  }
  return true;
}

// Output columns [0, width) of a 1:n operator: input column c at the
// input row each output row came from (moved when the mapping is 1:1).
std::vector<ColumnBuilder> GatherColumns(Chunk* in, size_t width,
                                         const std::vector<uint32_t>& src) {
  std::vector<ColumnBuilder> cols;
  cols.reserve(width + 4);
  const bool identity = IsIdentity(src, in->num_rows());
  for (size_t c = 0; c < width; ++c) {
    if (identity) {
      cols.push_back(std::move(in->cols()[c]));
    } else {
      cols.push_back(ColumnBuilder::Gather(in->col(c), src));
    }
  }
  return cols;
}

// ---------------------------------------------------------------------------
// VideoScan
// ---------------------------------------------------------------------------

class VideoScanOp : public Operator {
 public:
  VideoScanOp(ExecContext* ctx, int64_t lo, int64_t hi)
      : Operator(ctx, Schema({{kColId, DataType::kInt64}})),
        next_(std::max<int64_t>(lo, 0)),
        hi_(std::min(hi, ctx->video->num_frames())) {
    if (ctx->obs_registry != nullptr) {
      frames_scanned_ = ctx->obs_registry->GetCounter(
          "eva_frames_scanned_total", "Video frames decoded by scans",
          {{"video", ctx->video->info().name}});
    }
  }

  Result<Chunk> Next() override {
    Chunk out(output_schema_);
    if (next_ >= hi_) return out;
    int64_t end = std::min(hi_, next_ + ctx_->batch_size);
    std::vector<ColumnBuilder> cols(1);
    for (int64_t f = next_; f < end; ++f) cols[0].AppendInt64(f);
    ctx_->Charge(CostCategory::kReadVideo,
                 ctx_->costs.video_read_ms_per_frame *
                     static_cast<double>(end - next_));
    if (frames_scanned_ != nullptr) {
      frames_scanned_->Increment(static_cast<double>(end - next_));
    }
    const size_t rows = static_cast<size_t>(end - next_);
    next_ = end;
    return Chunk(output_schema_, std::move(cols), rows);
  }

 private:
  int64_t next_;
  int64_t hi_;
  obs::Counter* frames_scanned_ = nullptr;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, OperatorPtr child, expr::ExprPtr predicate)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {
    // Compiled once per query; nullopt keeps the per-row interpreter for
    // predicate shapes the register program does not cover.
    if (ctx->vectorized_filter) {
      program_ = FilterProgram::Compile(*predicate_, output_schema_);
    }
    if (ctx->obs_registry != nullptr) {
      rows_vectorized_ = ctx->obs_registry->GetCounter(
          "eva_rows_filtered_vectorized_total",
          "Rows whose filter verdict came from the vectorized batch "
          "evaluator");
      fill_ratio_ = ctx->obs_registry->GetHistogram(
          "eva_filter_batch_fill_ratio",
          "Input batch occupancy (rows / batch_size) at filter operators",
          {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    }
  }

  Result<Chunk> Next() override {
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return in;
      const size_t n = in.num_rows();
      if (fill_ratio_ != nullptr && ctx_->batch_size > 0) {
        fill_ratio_->Observe(static_cast<double>(n) /
                             static_cast<double>(ctx_->batch_size));
      }
      if (program_.has_value() && program_->Execute(in, &keep_).ok()) {
        if (ctx_->active_stats != nullptr) {
          ctx_->active_stats->rows_filtered_vectorized +=
              static_cast<int64_t>(n);
        }
        if (rows_vectorized_ != nullptr) {
          rows_vectorized_->Increment(static_cast<double>(n));
        }
      } else {
        // A runtime type error falls through to the interpreter, which
        // reproduces the exact short-circuit behavior and error.
        keep_.assign(n, 0);
        for (size_t r = 0; r < n; ++r) {
          EVA_ASSIGN_OR_RETURN(
              bool keep,
              expr::EvaluateBool(*predicate_, in.schema(), in.RowAt(r)));
          keep_[r] = keep ? 1 : 0;
        }
      }
      in.Filter(keep_);
      if (!in.empty()) return in;
    }
  }

 private:
  OperatorPtr child_;
  expr::ExprPtr predicate_;
  std::optional<FilterProgram> program_;
  std::vector<uint8_t> keep_;
  obs::Counter* rows_vectorized_ = nullptr;
  obs::Histogram* fill_ratio_ = nullptr;
};

// ---------------------------------------------------------------------------
// UDF evaluation helpers shared by Apply / CondApply. Callable from runtime
// worker threads: everything they touch is either immutable (models, video,
// the input chunk), internally synchronized (UdfRuntime, obs counters), or
// morsel-local (charge log, metrics, active stats, tally, output columns)
// — see docs/RUNTIME.md.
// ---------------------------------------------------------------------------

// Consults the fault injector before a fresh model evaluation. A transient
// (kError) fault is retried up to ctx->udf_max_retries times, charging an
// exponentially growing simulated backoff per attempt — via ctx->Charge, so
// the charge lands in the morsel-local log and replays deterministically.
// A permanent (kFail/kCrash) fault, or retry exhaustion, surfaces as a
// Status error that aborts the query; coverage already claimed for it is
// rolled back by the engine (graceful degradation: rerun recomputes).
Status MaybeInjectUdfFault(ExecContext* ctx, const UdfDef& def,
                           int64_t frame, int64_t obj,
                           const UdfObsCounters& obs) {
  if (ctx->faults == nullptr) return Status::OK();
  const std::string point = "udf:" + def.name + ":" + std::to_string(frame) +
                            ":" + std::to_string(obj);
  double backoff_ms = ctx->udf_retry_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    switch (ctx->faults->At(point)) {
      case fault::FaultAction::kNone:
        return Status::OK();
      case fault::FaultAction::kError:
      case fault::FaultAction::kShortWrite:
        if (attempt >= ctx->udf_max_retries) {
          return Status::ResourceExhausted(
              "transient UDF fault persisted after " +
              std::to_string(ctx->udf_max_retries) + " retries at " + point);
        }
        if (ctx->metrics != nullptr) ++ctx->metrics->udf_retries;
        if (ctx->active_stats != nullptr) ++ctx->active_stats->udf_retries;
        if (obs.retries != nullptr) obs.retries->Increment();
        if (ctx->event_log != nullptr) {
          ctx->event_log->Append(obs::Event("udf_retry")
                                     .Int("query_id", ctx->query_id)
                                     .Int("session_id", ctx->session_id)
                                     .Str("udf", def.name)
                                     .Int("frame", frame)
                                     .Int("attempt", attempt + 1)
                                     .Num("backoff_sim_ms", backoff_ms));
        }
        ctx->Charge(CostCategory::kUdf, backoff_ms);
        backoff_ms *= 2;
        break;
      default:  // kFail / kCrash: permanent
        return Status::Internal("injected UDF fault at " + point);
    }
  }
}

// Evaluates the detector on one frame. Charges UDF cost and tallies the
// invocation.
Result<std::vector<vision::Detection>> RunDetector(
    ExecContext* ctx, const UdfDef& def, int64_t frame,
    const UdfObsCounters& obs, UdfTally* tally) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::DetectorModel* model,
                       ctx->udfs->Detector(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, -1, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  runtime::SpinFor(ctx->udf_spin_us);
  ++tally->fresh;
  return model->Detect(*ctx->video, frame);
}

Result<Value> RunClassifier(ExecContext* ctx, const UdfDef& def,
                            int64_t frame, int64_t obj,
                            const UdfObsCounters& obs, UdfTally* tally) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::ClassifierModel* model,
                       ctx->udfs->Classifier(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, obj, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  runtime::SpinFor(ctx->udf_spin_us);
  ++tally->fresh;
  return Value(model->Classify(*ctx->video, frame, static_cast<int>(obj)));
}

Result<Value> RunFilterUdf(ExecContext* ctx, const UdfDef& def,
                           int64_t frame, const UdfObsCounters& obs,
                           UdfTally* tally) {
  obs::ProfScope prof("udf");
  EVA_ASSIGN_OR_RETURN(const vision::FilterModel* model,
                       ctx->udfs->Filter(def.name));
  EVA_RETURN_IF_ERROR(MaybeInjectUdfFault(ctx, def, frame, -1, obs));
  ctx->Charge(CostCategory::kUdf, def.cost_ms);
  runtime::SpinFor(ctx->udf_spin_us);
  ++tally->fresh;
  return Value(model->Pass(*ctx->video, frame));
}

// Appends one output row per detection — (obj, label, area, score), the
// detector output schema — each from input row `row`.
void AppendDetections(const std::vector<vision::Detection>& dets,
                      uint32_t row, std::vector<uint32_t>* src,
                      std::vector<ColumnBuilder>* cols) {
  for (const vision::Detection& d : dets) {
    src->push_back(row);
    (*cols)[0].AppendInt64(static_cast<int64_t>(d.obj_id));
    (*cols)[1].AppendString(d.label);
    (*cols)[2].AppendDouble(d.area);
    (*cols)[3].AppendDouble(d.score);
  }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel evaluation.
//
// EvalMorsels is the single driver under Apply and CondApply: it runs
// `fn` over the input rows, either serially as one range (no pool,
// FunCache mode, or single-row chunks) or split into fixed-size morsels
// on the work-stealing pool. A morsel emits a part: its output rows as
// the input row each came from, plus the operator's new columns. Each
// morsel runs with a context clone whose accounting is private (charge
// log, metrics, operator stats); the driver thread then merges the
// morsels back IN MORSEL ORDER — parts concatenate, metric counters add
// exactly, and the charge logs replay onto the shared SimClock as the very
// sequence of Charge calls a serial run would have made. That replay is
// what keeps simulated times bit-identical at every thread count.
//
// FunCache mode stays serial: its per-tuple cache makes row evaluation
// order-dependent (a row can hit an entry the previous row inserted), which
// has no deterministic parallel decomposition. EVA/HashStash reuse goes
// through ViewJoin/Store on the driver thread and is unaffected.
//
// Error semantics: a failing row aborts its own morsel; merging stops at
// the first failed morsel (in morsel order) after replaying the charges of
// the preceding complete morsels. Serial execution stops mid-chunk instead,
// so clock state after an *error* may differ from serial — fn errors are
// catalog-lookup failures that plan building already rules out.
// ---------------------------------------------------------------------------

struct MorselPart {
  std::vector<uint32_t> src;       // input row of each output row
  std::vector<ColumnBuilder> cols;  // the operator's new columns
};

using MorselFn =
    std::function<Status(ExecContext*, size_t, size_t, MorselPart*)>;

Result<MorselPart> EvalMorsels(ExecContext* ctx, size_t n, size_t num_cols,
                               const MorselFn& fn) {
  const bool parallel =
      ctx->pool != nullptr && ctx->funcache == nullptr && n > 1;
  if (!parallel) {
    MorselPart part;
    part.cols.resize(num_cols);
    EVA_RETURN_IF_ERROR(fn(ctx, 0, n, &part));
    return part;
  }
  // Morsel split depends only on (n, morsel_rows), never the worker count:
  // identical partitioning is the first half of reproducibility.
  std::vector<runtime::Morsel> morsels =
      runtime::SplitMorsels(static_cast<int64_t>(n), ctx->morsel_rows);
  struct MorselOut {
    MorselPart part;
    runtime::ChargeLog log;
    QueryMetrics metrics;
    obs::OperatorStats stats;
    Status status;
  };
  std::vector<MorselOut> outs(morsels.size());
  ctx->pool->ParallelFor(
      static_cast<int64_t>(morsels.size()), [&](int64_t m) {
        MorselOut& o = outs[static_cast<size_t>(m)];
        ExecContext local = *ctx;
        local.charge_log = &o.log;
        local.metrics = &o.metrics;
        local.active_stats = ctx->active_stats != nullptr ? &o.stats : nullptr;
        o.part.cols.resize(num_cols);
        const runtime::Morsel& range = morsels[static_cast<size_t>(m)];
        o.status = fn(&local, static_cast<size_t>(range.begin),
                      static_cast<size_t>(range.end), &o.part);
      });
  MorselPart out;
  std::vector<int32_t> remap;
  for (size_t m = 0; m < outs.size(); ++m) {
    MorselOut& o = outs[m];
    EVA_RETURN_IF_ERROR(o.status);
    o.log.ReplayInto(ctx->clock);
    ctx->metrics->Accumulate(o.metrics);
    if (ctx->active_stats != nullptr) ctx->active_stats->Add(o.stats);
    if (m == 0) {
      out = std::move(o.part);
      continue;
    }
    out.src.insert(out.src.end(), o.part.src.begin(), o.part.src.end());
    for (size_t c = 0; c < num_cols; ++c) {
      remap.clear();
      out.cols[c].AppendRange(o.part.cols[c], 0, o.part.cols[c].size(),
                              &remap);
    }
  }
  return out;
}

// Copies runs of pass-through rows — rows a 1:n operator emits unchanged —
// from the input's trailing columns into a morsel part. Rows between
// Take() calls join the pending run; Flush(upto) appends the run up to
// row `upto`, one AppendRange per column.
class PassRun {
 public:
  PassRun(const Chunk& in, size_t first_col, size_t begin, MorselPart* part)
      : in_(in), first_col_(first_col), start_(begin), part_(part),
        remaps_(part->cols.size()) {}

  void Flush(size_t upto) {
    if (upto <= start_) return;
    for (size_t r = start_; r < upto; ++r) {
      part_->src.push_back(static_cast<uint32_t>(r));
    }
    for (size_t c = 0; c < part_->cols.size(); ++c) {
      part_->cols[c].AppendRange(in_.col(first_col_ + c), start_,
                                 upto - start_, &remaps_[c]);
    }
    start_ = upto;
  }
  // Row `r` is not a pass-through row: flush the run before it and
  // restart after it.
  void Take(size_t r) {
    Flush(r);
    start_ = r + 1;
  }

 private:
  const Chunk& in_;
  size_t first_col_;
  size_t start_;
  MorselPart* part_;
  std::vector<std::vector<int32_t>> remaps_;
};

// FunCache hashing overhead: the cache key covers the UDF's input
// arguments, dominated by the decoded frame bytes (§5.2).
void ChargeFunCacheHash(ExecContext* ctx) {
  double mb = ctx->video->info().BytesPerFrame() / 1e6;
  ctx->Charge(CostCategory::kHashing,
              ctx->costs.funcache_hash_ms_per_mb * mb);
}

// ---------------------------------------------------------------------------
// Apply: evaluate the UDF for every input row (Fig. 3 rewrite). In FunCache
// mode, consults the tuple-level cache first.
// ---------------------------------------------------------------------------

class ApplyOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  bool emit_presence_placeholders) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    EVA_ASSIGN_OR_RETURN(
        Schema schema,
        child->output_schema().Extend(UdfOutputSchema(def).fields()));
    return OperatorPtr(new ApplyOp(ctx, std::move(child), std::move(def),
                                   std::move(schema),
                                   emit_presence_placeholders));
  }

  Result<Chunk> Next() override {
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (in.empty()) return Chunk(output_schema_);
    const size_t n = in.num_rows();
    const size_t width = in.num_cols();
    const ColumnBuilder& ids = in.col(static_cast<size_t>(id_idx_));
    if (def_.kind == UdfKind::kDetector) {
      const size_t n_outputs = output_schema_.num_fields() - width;
      auto fn = [&](ExecContext* ctx, size_t begin, size_t end,
                    MorselPart* part) -> Status {
        UdfTally tally(ctx, def_.name, obs_);
        for (size_t r = begin; r < end; ++r) {
          const int64_t frame = ids.Int64At(r);
          const uint32_t row = static_cast<uint32_t>(r);
          if (ctx->funcache != nullptr) {
            EVA_ASSIGN_OR_RETURN(
                std::vector<Row> rows,
                CachedRows(ctx, ViewKey{frame, -1}, &tally, [&] {
                  return DetectionRows(ctx, frame, &tally);
                }));
            if (rows.empty() && emit_presence_placeholders_) {
              AppendPlaceholder(row, part);
            }
            for (const Row& d : rows) {
              part->src.push_back(row);
              for (size_t c = 0; c < n_outputs; ++c) part->cols[c].Append(d[c]);
            }
            continue;
          }
          EVA_ASSIGN_OR_RETURN(std::vector<vision::Detection> dets,
                               RunDetector(ctx, def_, frame, obs_, &tally));
          if (dets.empty() && emit_presence_placeholders_) {
            // NULL placeholder so the STORE above records presence even
            // for frames where nothing was detected.
            AppendPlaceholder(row, part);
          }
          AppendDetections(dets, row, &part->src, &part->cols);
        }
        return Status::OK();
      };
      EVA_ASSIGN_OR_RETURN(MorselPart part,
                           EvalMorsels(ctx_, n, n_outputs, fn));
      std::vector<ColumnBuilder> cols = GatherColumns(&in, width, part.src);
      for (ColumnBuilder& c : part.cols) cols.push_back(std::move(c));
      return Chunk(output_schema_, std::move(cols), part.src.size());
    }
    // Classifier / filter UDF: one new column, row for row.
    const int obj_idx = obj_idx_;
    auto fn = [&](ExecContext* ctx, size_t begin, size_t end,
                  MorselPart* part) -> Status {
      UdfTally tally(ctx, def_.name, obs_);
      ColumnBuilder& out = part->cols[0];
      for (size_t r = begin; r < end; ++r) {
        const int64_t frame = ids.Int64At(r);
        if (def_.kind == UdfKind::kClassifier) {
          const ColumnBuilder& objs = in.col(static_cast<size_t>(obj_idx));
          if (objs.IsNull(r)) {
            out.AppendNull();
            continue;
          }
          const int64_t obj = objs.Int64At(r);
          EVA_ASSIGN_OR_RETURN(Value v, OneValue(ctx, ViewKey{frame, obj},
                                                 &tally, [&] {
                                                   return RunClassifier(
                                                       ctx, def_, frame, obj,
                                                       obs_, &tally);
                                                 }));
          out.Append(v);
        } else {
          EVA_ASSIGN_OR_RETURN(Value v, OneValue(ctx, ViewKey{frame, -1},
                                                 &tally, [&] {
                                                   return RunFilterUdf(
                                                       ctx, def_, frame,
                                                       obs_, &tally);
                                                 }));
          out.Append(v);
        }
      }
      return Status::OK();
    };
    EVA_ASSIGN_OR_RETURN(MorselPart part, EvalMorsels(ctx_, n, 1, fn));
    in.cols().push_back(std::move(part.cols[0]));
    return Chunk(output_schema_, std::move(in.cols()), n);
  }

 private:
  ApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema,
          bool emit_presence_placeholders)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        emit_presence_placeholders_(emit_presence_placeholders),
        obs_(MakeUdfCounters(ctx, def_.name)),
        id_idx_(child_->output_schema().IndexOf(kColId)),
        obj_idx_(child_->output_schema().IndexOf(kColObj)) {}

  // A row of NULL detector outputs for input row `row`.
  static void AppendPlaceholder(uint32_t row, MorselPart* part) {
    part->src.push_back(row);
    for (ColumnBuilder& c : part->cols) c.AppendNull();
  }

  // The helpers below receive the morsel-local context (`ctx`, not `ctx_`)
  // so worker-thread accounting lands in the morsel's private charge log.
  // The FunCache branches only ever see ctx == ctx_: EvalMorsels keeps
  // FunCache mode serial because the cache is order-dependent.

  // FunCache mode: the cached output rows of `key`, or the fresh result of
  // `compute`, inserted into the cache.
  template <typename Compute>
  Result<std::vector<Row>> CachedRows(ExecContext* ctx, const ViewKey& key,
                                      UdfTally* tally,
                                      const Compute& compute) {
    ChargeFunCacheHash(ctx);
    if (const std::vector<Row>* hit = ctx->funcache->Lookup(def_.name, key)) {
      ++tally->cached;
      return *hit;
    }
    EVA_ASSIGN_OR_RETURN(std::vector<Row> rows, compute());
    ctx->funcache->Insert(def_.name, key, rows);
    return rows;
  }

  Result<std::vector<Row>> DetectionRows(ExecContext* ctx, int64_t frame,
                                         UdfTally* tally) {
    EVA_ASSIGN_OR_RETURN(std::vector<vision::Detection> dets,
                         RunDetector(ctx, def_, frame, obs_, tally));
    std::vector<Row> rows;
    rows.reserve(dets.size());
    for (vision::Detection& d : dets) {
      rows.push_back({Value(static_cast<int64_t>(d.obj_id)),
                      Value(std::move(d.label)), Value(d.area),
                      Value(d.score)});
    }
    return rows;
  }

  // A single-valued UDF result (classifier / filter): through the FunCache
  // when one is active, straight from `run` otherwise.
  template <typename Run>
  Result<Value> OneValue(ExecContext* ctx, const ViewKey& key,
                         UdfTally* tally, const Run& run) {
    if (ctx->funcache == nullptr) return run();
    EVA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         CachedRows(ctx, key, tally,
                                    [&]() -> Result<std::vector<Row>> {
                                      EVA_ASSIGN_OR_RETURN(Value v, run());
                                      return std::vector<Row>{Row{v}};
                                    }));
    return rows[0][0];
  }

  OperatorPtr child_;
  UdfDef def_;
  bool emit_presence_placeholders_;
  UdfObsCounters obs_;
  int id_idx_;
  int obj_idx_;
};

// ---------------------------------------------------------------------------
// ViewJoin: LEFT OUTER JOIN with the materialized view (Fig. 4 step 1).
// Rows found in the view get outputs populated (and count as reused
// invocations); missing rows get NULL outputs for CondApply to fill.
//
// Probing is batched: a pre-pass classifies each input row (pass-through /
// NULL-out / probe) and collects the probe keys, then one ProbeBatch call
// answers every probe under a single view-lock acquisition. Hit cells are
// decoded lane to lane into the output columns, one AppendRange per run
// of contiguous rows in a probed segment; the base columns are gathered
// by input row index. When the plan attached a residual predicate and
// zone-map skipping is on, segments whose zone maps prove the residual
// unsatisfiable are skipped: their hits keep identical metrics, access
// stamps, and probe charges, but the kReadView charge and the output rows
// are dropped — the residual FilterNode above would discard those rows
// anyway (and their keys are already stored), so query results are
// unchanged at any thread count. Each output chunk carries the hit/miss
// verdict (ViewHits) so STORE appends the computed rows without looking
// their keys up again.
// ---------------------------------------------------------------------------

class ViewJoinOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name,
                                  bool scan_all_for_dedup,
                                  expr::ExprPtr residual) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    Schema out = child->output_schema();
    Schema udf_out = UdfOutputSchema(def);
    // Extend only with columns not already present (multi-view chains for
    // one logical UDF share output columns).
    for (const Field& f : udf_out.fields()) {
      if (!out.Contains(f.name)) out.AddField(f);
    }
    return OperatorPtr(new ViewJoinOp(ctx, std::move(child), std::move(def),
                                      view_name, scan_all_for_dedup,
                                      std::move(residual), std::move(out)));
  }

  Result<Chunk> Next() override {
    if (scan_all_pending_) {
      // HashStash: dedup the union of all matched operator outputs — a
      // full read of the recycled materialization (§5.1 baseline).
      scan_all_pending_ = false;
      const MaterializedView* view = ctx_->views->Find(view_name_);
      if (view != nullptr) {
        ctx_->Charge(CostCategory::kReadView,
                     ctx_->costs.view_read_ms_per_row *
                         static_cast<double>(view->num_rows()));
      }
    }
    // A chunk whose every row was skipped by the zone check yields no
    // rows; keep pulling so an empty chunk only ever means end of stream.
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return Chunk(output_schema_);
      Chunk out = Join(std::move(in));
      if (!out.empty()) return out;
    }
  }

 private:
  enum RowAction : uint8_t { kPass = 0, kNullOut, kProbe };

  ViewJoinOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
             std::string view_name, bool scan_all, expr::ExprPtr residual,
             Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        hashstash_(scan_all),
        scan_all_pending_(scan_all),
        residual_(std::move(residual)),
        value_schema_(UdfOutputSchema(def_)) {
    const Schema& in = child_->output_schema();
    id_idx_ = in.IndexOf(kColId);
    obj_idx_ = in.IndexOf(kColObj);
    already_idx_ = in.IndexOf(def_.name);
    outputs_present_ =
        in.Contains(def_.kind == UdfKind::kDetector ? kColObj : def_.name);
    out_idx_ = output_schema_.IndexOf(def_.name);
    // Width of the input columns that precede the detector outputs: when
    // the input already carries (possibly NULL) output columns from an
    // earlier view join, they are replaced rather than re-appended.
    output_width_base_ = output_schema_.num_fields() - value_schema_.num_fields();
    if (ctx->obs_registry != nullptr) {
      probe_hits_ = ctx->obs_registry->GetCounter(
          "eva_view_probe_hits_total",
          "Materialized-view probes answered from the view",
          {{"udf", def_.name}});
      probe_misses_ = ctx->obs_registry->GetCounter(
          "eva_view_probe_misses_total",
          "Materialized-view probes that fell through to the UDF",
          {{"udf", def_.name}});
      segments_skipped_ = ctx->obs_registry->GetCounter(
          "eva_segments_skipped_total",
          "View segments skipped by zone-map residual-predicate pruning",
          {{"udf", def_.name}});
      bloom_hits_ = ctx->obs_registry->GetCounter(
          "eva_bloom_hits_total",
          "Probes the segment Bloom filter passed through to the key index",
          {{"udf", def_.name}});
      bloom_negatives_ = ctx->obs_registry->GetCounter(
          "eva_bloom_negatives_total",
          "Probe misses short-circuited by the segment Bloom filter",
          {{"udf", def_.name}});
      bloom_fps_ = ctx->obs_registry->GetCounter(
          "eva_bloom_fps_total",
          "Bloom false positives (filter passed, key index still missed)",
          {{"udf", def_.name}});
    }
  }

  Chunk Join(Chunk in) {
    MaterializedView* view = ctx_->views->Find(view_name_);
    const size_t n = in.num_rows();
    const ColumnBuilder& ids = in.col(static_cast<size_t>(id_idx_));
    const ColumnBuilder* objs =
        obj_idx_ >= 0 ? &in.col(static_cast<size_t>(obj_idx_)) : nullptr;
    const ColumnBuilder* already =
        already_idx_ >= 0 ? &in.col(static_cast<size_t>(already_idx_))
                          : nullptr;

    // Pre-pass: classify rows and collect probe keys. Within one chunk no
    // Put can land on this view (STORE sits above and runs only after the
    // chunk is emitted), so a chunk-start probe equals per-row probes.
    actions_.assign(n, kProbe);
    probe_keys_.clear();
    for (size_t r = 0; r < n; ++r) {
      const int64_t frame = ids.Int64At(r);
      if (def_.kind == UdfKind::kDetector) {
        // A row that already has a non-null obj was populated by an
        // earlier view in the chain; pass it through.
        if (outputs_present_ && objs != nullptr && !objs->IsNull(r)) {
          actions_[r] = kPass;
          continue;
        }
        probe_keys_.push_back(ViewKey{frame, -1});
        continue;
      }
      if (already != nullptr && !already->IsNull(r)) {
        actions_[r] = kPass;
        continue;
      }
      const bool obj_null = objs == nullptr || objs->IsNull(r);
      if (def_.kind == UdfKind::kClassifier && obj_null) {
        actions_[r] = kNullOut;
        continue;
      }
      probe_keys_.push_back(ViewKey{
          frame, def_.kind == UdfKind::kClassifier ? objs->Int64At(r) : -1});
    }
    probe_res_.Clear();
    if (view != nullptr && !probe_keys_.empty()) {
      storage::ZoneCheckFn zone_fn;
      if (ctx_->zone_map_skipping && residual_ != nullptr) {
        zone_fn = [this](const storage::SegmentZone& seg) {
          return ZoneCanMatch(*residual_, seg, value_schema_);
        };
      }
      view->ProbeBatch(probe_keys_, zone_fn, &probe_res_);
    }
    remaps_.assign(probe_res_.segments.size() * value_schema_.num_fields(),
                   {});
    run_ = HitRun{};
    hits_ = 0;
    misses_ = 0;
    hit_frames_.clear();
    row_hits_.clear();
    passed_ = false;

    Chunk out = def_.kind == UdfKind::kDetector
                    ? JoinDetector(std::move(in), view != nullptr)
                    : JoinSingle(std::move(in), view != nullptr);
    RecordProbes(view);
    // A row passed through from an earlier view was not classified here.
    if (!hashstash_ && !passed_) {
      out.set_view_hits({view_name_, std::move(row_hits_)});
    }
    return out;
  }

  // Probe outcome of the next probed row (nullptr without a view), after
  // its probe charge; counts it and stamps hits for RecordProbes.
  const storage::ProbeOutcome* NextOutcome(bool have_view, int64_t frame) {
    ctx_->Charge(CostCategory::kOther, ctx_->costs.view_probe_ms_per_key);
    const storage::ProbeOutcome* oc =
        have_view ? &probe_res_.outcomes[next_outcome_++] : nullptr;
    if (oc == nullptr || oc->status == storage::ProbeStatus::kMiss) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    hit_frames_.push_back(frame);
    return oc;
  }

  // Detector view: a hit expands into the key's stored rows, a miss into
  // one row of NULL outputs, a pass-through row stays as it is.
  Chunk JoinDetector(Chunk in, bool have_view) {
    const size_t n = in.num_rows();
    const size_t base = output_width_base_;
    const size_t n_outputs = value_schema_.num_fields();
    const ColumnBuilder& ids = in.col(static_cast<size_t>(id_idx_));
    std::vector<uint32_t> src;
    src.reserve(n);
    std::vector<ColumnBuilder> outs(n_outputs);
    std::vector<std::vector<int32_t>> pass_remaps(n_outputs);
    next_outcome_ = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint32_t row = static_cast<uint32_t>(r);
      if (actions_[r] == kPass) {
        FlushRun(&outs);
        src.push_back(row);
        passed_ = true;
        for (size_t c = 0; c < n_outputs; ++c) {
          if (base + c < in.num_cols()) {
            outs[c].AppendRange(in.col(base + c), r, 1, &pass_remaps[c]);
          } else {
            outs[c].AppendNull();
          }
        }
        continue;
      }
      const storage::ProbeOutcome* oc = NextOutcome(have_view, ids.Int64At(r));
      if (oc == nullptr) {
        FlushRun(&outs);
        src.push_back(row);
        row_hits_.push_back(0);
        for (ColumnBuilder& c : outs) c.AppendNull();
        continue;
      }
      // kHitSkipped: the zone map proved the residual filter above
      // discards every stored row — skip the read, emit nothing.
      if (oc->status != storage::ProbeStatus::kHit) continue;
      ctx_->Charge(CostCategory::kReadView,
                   ctx_->costs.view_read_ms_per_row *
                       static_cast<double>(oc->rows_count));
      src.insert(src.end(), static_cast<size_t>(oc->rows_count), row);
      row_hits_.insert(row_hits_.end(), static_cast<size_t>(oc->rows_count),
                       1);
      ExtendRun(*oc, oc->rows_count, &outs);
    }
    FlushRun(&outs);
    std::vector<ColumnBuilder> cols = GatherColumns(&in, base, src);
    for (ColumnBuilder& c : outs) cols.push_back(std::move(c));
    return Chunk(output_schema_, std::move(cols), src.size());
  }

  // Classifier / filter view: one output column, set row for row; a
  // skipped hit drops its row.
  Chunk JoinSingle(Chunk in, bool have_view) {
    const size_t n = in.num_rows();
    const ColumnBuilder& ids = in.col(static_cast<size_t>(id_idx_));
    const bool in_has_out = static_cast<size_t>(out_idx_) < in.num_cols();
    std::vector<ColumnBuilder> vals(1);
    std::vector<int32_t> pass_remap;
    keep_.assign(n, 1);
    bool dropped = false;
    next_outcome_ = 0;
    for (size_t r = 0; r < n; ++r) {
      if (actions_[r] == kPass) {
        FlushRun(&vals);
        vals[0].AppendRange(in.col(static_cast<size_t>(out_idx_)), r, 1,
                            &pass_remap);
        passed_ = true;
        continue;
      }
      if (actions_[r] == kNullOut) {
        FlushRun(&vals);
        vals[0].AppendNull();
        row_hits_.push_back(0);
        continue;
      }
      const storage::ProbeOutcome* oc = NextOutcome(have_view, ids.Int64At(r));
      if (oc == nullptr) {
        FlushRun(&vals);
        vals[0].AppendNull();
        row_hits_.push_back(0);
        continue;
      }
      if (oc->status != storage::ProbeStatus::kHit) {
        // kHitSkipped: drop the row — its key is stored already and the
        // residual filter above would discard it.
        keep_[r] = 0;
        dropped = true;
        continue;
      }
      ctx_->Charge(CostCategory::kReadView, ctx_->costs.view_read_ms_per_row);
      row_hits_.push_back(1);
      if (oc->rows_count == 0) {
        FlushRun(&vals);
        vals[0].AppendNull();
      } else {
        ExtendRun(*oc, 1, &vals);  // the key's first stored row
      }
    }
    FlushRun(&vals);
    if (dropped) in.Filter(keep_);
    const size_t rows = vals[0].size();
    std::vector<ColumnBuilder>& cols = in.cols();
    if (in_has_out) {
      cols[static_cast<size_t>(out_idx_)] = std::move(vals[0]);
    } else {
      cols.push_back(std::move(vals[0]));
    }
    return Chunk(output_schema_, std::move(cols), rows);
  }

  // Pending run of contiguous hit rows in one probed segment.
  struct HitRun {
    int32_t seg = -1;
    int32_t begin = 0;
    int32_t count = 0;
  };

  // Adds `count` rows of `oc` to the pending run, flushing it first when
  // they do not continue it.
  void ExtendRun(const storage::ProbeOutcome& oc, int32_t count,
                 std::vector<ColumnBuilder>* outs) {
    if (oc.seg_index != run_.seg || oc.rows_begin != run_.begin + run_.count) {
      FlushRun(outs);
      run_.seg = oc.seg_index;
      run_.begin = oc.rows_begin;
    }
    run_.count += count;
  }

  // Decodes the pending run into the output columns, lane to lane.
  void FlushRun(std::vector<ColumnBuilder>* outs) {
    if (run_.count == 0) return;
    const storage::ColumnarSegment& seg =
        *probe_res_.segments[static_cast<size_t>(run_.seg)];
    const size_t width = value_schema_.num_fields();
    for (size_t c = 0; c < outs->size(); ++c) {
      (*outs)[c].AppendRange(
          seg.cols[c], static_cast<size_t>(run_.begin),
          static_cast<size_t>(run_.count),
          &remaps_[static_cast<size_t>(run_.seg) * width + c]);
    }
    run_.count = 0;
  }

  // Per-chunk bookkeeping, once: metrics, per-node stats and registry
  // counters, then the hit segments' access stamps under one view lock.
  void RecordProbes(MaterializedView* view) {
    obs::OperatorStats* stats = ctx_->active_stats;
    if (hits_ > 0) {
      ctx_->metrics->invocations[def_.name] += hits_;
      ctx_->metrics->reused[def_.name] += hits_;
      if (stats != nullptr) {
        stats->view_hits += hits_;
        stats->rows_reused += hits_;
      }
      if (probe_hits_ != nullptr) {
        probe_hits_->Increment(static_cast<double>(hits_));
      }
      const uint64_t first_tick =
          ctx_->views->NextAccessTicks(static_cast<uint64_t>(hits_));
      view->RecordAccesses(hit_frames_, first_tick, ctx_->query_id);
    }
    if (misses_ > 0) {
      if (stats != nullptr) stats->view_misses += misses_;
      if (probe_misses_ != nullptr) {
        probe_misses_->Increment(static_cast<double>(misses_));
      }
    }
    if (probe_res_.segments_skipped > 0) {
      if (stats != nullptr) {
        stats->segments_skipped += probe_res_.segments_skipped;
      }
      if (segments_skipped_ != nullptr) {
        segments_skipped_->Increment(
            static_cast<double>(probe_res_.segments_skipped));
      }
    }
    if (stats != nullptr) {
      stats->bloom_negatives += probe_res_.bloom_negatives;
      stats->bloom_fps += probe_res_.bloom_fps;
    }
    if (bloom_hits_ != nullptr && probe_res_.bloom_hits > 0) {
      bloom_hits_->Increment(static_cast<double>(probe_res_.bloom_hits));
    }
    if (bloom_negatives_ != nullptr && probe_res_.bloom_negatives > 0) {
      bloom_negatives_->Increment(
          static_cast<double>(probe_res_.bloom_negatives));
    }
    if (bloom_fps_ != nullptr && probe_res_.bloom_fps > 0) {
      bloom_fps_->Increment(static_cast<double>(probe_res_.bloom_fps));
    }
  }

  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  bool hashstash_;  // HashStash plans keep STORE's presence lookups
  bool scan_all_pending_;
  expr::ExprPtr residual_;
  Schema value_schema_;  // the view's value schema (zone-check resolution)
  // Column positions, resolved once from the input / output schemas.
  int id_idx_ = -1;
  int obj_idx_ = -1;
  int already_idx_ = -1;
  bool outputs_present_ = false;
  int out_idx_ = -1;
  size_t output_width_base_ = 0;
  // Per-chunk scratch, reused across Next() calls.
  std::vector<uint8_t> actions_;
  std::vector<uint8_t> keep_;
  std::vector<ViewKey> probe_keys_;
  storage::ProbeResult probe_res_;
  size_t next_outcome_ = 0;  // cursor into probe_res_.outcomes
  HitRun run_;
  // Dictionary remaps per (probed segment, output column).
  std::vector<std::vector<int32_t>> remaps_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::vector<int64_t> hit_frames_;  // one per hit, in probe order
  std::vector<uint8_t> row_hits_;    // the chunk's ViewHits::hit
  bool passed_ = false;              // some row passed through
  obs::Counter* probe_hits_ = nullptr;
  obs::Counter* probe_misses_ = nullptr;
  obs::Counter* segments_skipped_ = nullptr;
  obs::Counter* bloom_hits_ = nullptr;
  obs::Counter* bloom_negatives_ = nullptr;
  obs::Counter* bloom_fps_ = nullptr;
};

// ---------------------------------------------------------------------------
// CondApply: the conditional apply operator A[p*] (Fig. 4 step 2). The
// pass-through predicate is "outputs IS NOT NULL": only rows missing from
// the view are evaluated. Pass-through rows are copied in runs; a chunk
// with nothing to evaluate flows through untouched.
// ---------------------------------------------------------------------------

class CondApplyOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    Schema schema = child->output_schema();
    if (def.kind == UdfKind::kDetector && !schema.Contains(kColObj)) {
      return Status::Internal(
          "CondApply(detector) requires view-joined input");
    }
    if (def.kind != UdfKind::kDetector && !schema.Contains(def.name)) {
      return Status::Internal("CondApply requires the output column " +
                              def.name);
    }
    return OperatorPtr(new CondApplyOp(ctx, std::move(child), std::move(def),
                                       std::move(schema)));
  }

  Result<Chunk> Next() override {
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (in.empty()) return in;
    const size_t n = in.num_rows();
    // Chunk-level overhead charges on the driver thread before any morsel
    // runs, matching the serial charge order exactly.
    ctx_->Charge(CostCategory::kOther,
                 ctx_->costs.apply_overhead_ms_per_row *
                     static_cast<double>(n));
    const ColumnBuilder& ids = in.col(static_cast<size_t>(id_idx_));
    const ColumnBuilder* objs =
        obj_idx_ >= 0 ? &in.col(static_cast<size_t>(obj_idx_)) : nullptr;
    if (def_.kind == UdfKind::kDetector) {
      // Rows with a NULL obj missed the view: run the detector. A row with
      // detections is replaced by them; every other row (populated by the
      // view join, or a NULL placeholder of a frame with zero objects,
      // which STORE still records) passes through.
      size_t pending = 0;
      for (size_t r = 0; r < n; ++r) pending += objs->IsNull(r);
      if (pending == 0) return in;
      const size_t n_outputs = UdfOutputSchema(def_).num_fields();
      const size_t base = output_schema_.num_fields() - n_outputs;
      auto fn = [&](ExecContext* ctx, size_t begin, size_t end,
                    MorselPart* part) -> Status {
        UdfTally tally(ctx, def_.name, obs_);
        PassRun pass(in, base, begin, part);
        for (size_t r = begin; r < end; ++r) {
          if (!objs->IsNull(r)) continue;
          EVA_ASSIGN_OR_RETURN(
              std::vector<vision::Detection> dets,
              RunDetector(ctx, def_, ids.Int64At(r), obs_, &tally));
          if (dets.empty()) continue;  // keep the NULL placeholder
          pass.Take(r);
          AppendDetections(dets, static_cast<uint32_t>(r), &part->src,
                           &part->cols);
        }
        pass.Flush(end);
        return Status::OK();
      };
      EVA_ASSIGN_OR_RETURN(MorselPart part,
                           EvalMorsels(ctx_, n, n_outputs, fn));
      std::vector<ColumnBuilder> cols = GatherColumns(&in, base, part.src);
      for (ColumnBuilder& c : part.cols) cols.push_back(std::move(c));
      Chunk out(output_schema_, std::move(cols), part.src.size());
      if (const ViewHits& from = in.view_hits(); !from.view.empty()) {
        // Detections inherit the verdict of the row they replace.
        ViewHits to{from.view, {}};
        to.hit.reserve(part.src.size());
        for (uint32_t r : part.src) to.hit.push_back(from.hit[r]);
        out.set_view_hits(std::move(to));
      }
      return out;
    }
    // Classifier / filter UDF: fill the NULL cells of the output column
    // (a classifier row without an object stays NULL).
    const size_t out_idx = static_cast<size_t>(out_idx_);
    const ColumnBuilder& current = in.col(out_idx);
    auto pending_at = [&](size_t r) {
      return current.IsNull(r) &&
             (def_.kind != UdfKind::kClassifier || !objs->IsNull(r));
    };
    size_t pending = 0;
    for (size_t r = 0; r < n; ++r) pending += pending_at(r);
    if (pending == 0) return in;
    auto fn = [&](ExecContext* ctx, size_t begin, size_t end,
                  MorselPart* part) -> Status {
      UdfTally tally(ctx, def_.name, obs_);
      PassRun pass(in, out_idx, begin, part);
      for (size_t r = begin; r < end; ++r) {
        if (!pending_at(r)) continue;
        const int64_t frame = ids.Int64At(r);
        Result<Value> v =
            def_.kind == UdfKind::kClassifier
                ? RunClassifier(ctx, def_, frame, objs->Int64At(r), obs_,
                                &tally)
                : RunFilterUdf(ctx, def_, frame, obs_, &tally);
        if (!v.ok()) return v.status();
        pass.Take(r);
        part->src.push_back(static_cast<uint32_t>(r));
        part->cols[0].Append(v.value());
      }
      pass.Flush(end);
      return Status::OK();
    };
    EVA_ASSIGN_OR_RETURN(MorselPart part, EvalMorsels(ctx_, n, 1, fn));
    in.cols()[out_idx] = std::move(part.cols[0]);
    return in;
  }

 private:
  CondApplyOp(ExecContext* ctx, OperatorPtr child, UdfDef def, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        def_(std::move(def)),
        obs_(MakeUdfCounters(ctx, def_.name)),
        id_idx_(output_schema_.IndexOf(kColId)),
        obj_idx_(output_schema_.IndexOf(kColObj)),
        out_idx_(output_schema_.IndexOf(def_.name)) {}

  OperatorPtr child_;
  UdfDef def_;
  UdfObsCounters obs_;
  int id_idx_;
  int obj_idx_;
  int out_idx_;
};

// ---------------------------------------------------------------------------
// Store: appends fresh UDF results to the materialized view (Fig. 4 step
// 3). Append-only and idempotent: keys already present are skipped, so
// rows that came from the view flow through for free. Under a ViewJoin
// over the same view the chunk's verdict says which rows those are: they
// are skipped outright and the computed rest is put as absent keys, with
// no presence lookups. Without one (plain Apply, HashStash) Put looks
// every key up. Each chunk is one batch Put — column slices under one
// view lock — after which the kMaterialize charges and access ticks
// follow the inserted keys in order.
// ---------------------------------------------------------------------------

class StoreOp : public Operator {
 public:
  static Result<OperatorPtr> Make(ExecContext* ctx, OperatorPtr child,
                                  const std::string& udf,
                                  const std::string& view_name) {
    EVA_ASSIGN_OR_RETURN(UdfDef def, ctx->catalog->GetUdf(udf));
    return OperatorPtr(new StoreOp(ctx, std::move(child), std::move(def),
                                   view_name));
  }

  Result<Chunk> Next() override {
    // A chunk of NULL placeholders only stores keys and yields no rows;
    // keep pulling so an empty chunk only ever means end of stream.
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) return in;
      Store(&in);
      if (!in.empty()) return in;
    }
  }

 private:
  StoreOp(ExecContext* ctx, OperatorPtr child, UdfDef def,
          std::string view_name)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        def_(std::move(def)),
        view_name_(std::move(view_name)),
        id_idx_(output_schema_.IndexOf(kColId)),
        obj_idx_(output_schema_.IndexOf(kColObj)),
        val_idx_(output_schema_.IndexOf(def_.name)) {
    if (ctx->obs_registry != nullptr) {
      materialized_ = ctx->obs_registry->GetCounter(
          "eva_materialized_rows_total",
          "Rows appended to materialized views",
          {{"view", view_name_}});
    }
  }

  void Store(Chunk* in) {
    MaterializedView* view =
        ctx_->views->GetOrCreate(view_name_, UdfOutputSchema(def_));
    const size_t n = in->num_rows();
    const ColumnBuilder& ids = in->col(static_cast<size_t>(id_idx_));
    const ColumnBuilder* objs =
        obj_idx_ >= 0 ? &in->col(static_cast<size_t>(obj_idx_)) : nullptr;
    keys_.clear();
    sel_.clear();
    // Rows the ViewJoin below answered from this very view.
    const bool verdict = in->view_hits().view == view_name_;
    const uint8_t* hit = verdict ? in->view_hits().hit.data() : nullptr;
    size_t first_col = 0;
    bool placeholders = false;
    if (def_.kind == UdfKind::kDetector) {
      // One key per run of a frame's rows; its stored rows are those with
      // a non-null obj. A NULL obj is the placeholder of a processed frame
      // with zero objects: the key is recorded, the row is dropped here.
      bool in_run = false;  // a hit ends the run of the key before it
      for (size_t r = 0; r < n; ++r) {
        const bool null_obj = objs->IsNull(r);
        placeholders |= null_obj;
        if (hit != nullptr && hit[r] != 0) {
          in_run = false;
          continue;
        }
        const int64_t frame = ids.Int64At(r);
        if (!in_run || keys_.back().key.frame != frame) {
          const uint32_t at = static_cast<uint32_t>(sel_.size());
          keys_.push_back({ViewKey{frame, -1}, at, at});
          in_run = true;
        }
        if (null_obj) continue;
        sel_.push_back(static_cast<uint32_t>(r));
        keys_.back().end = static_cast<uint32_t>(sel_.size());
      }
      // The UDF's cells are the trailing columns of each row.
      first_col = in->num_cols() - UdfOutputSchema(def_).num_fields();
    } else {
      // Classifier / filter UDF: one row per key with a value.
      const ColumnBuilder& vals = in->col(static_cast<size_t>(val_idx_));
      for (size_t r = 0; r < n; ++r) {
        if ((hit != nullptr && hit[r] != 0) || vals.IsNull(r)) continue;
        int64_t obj = -1;
        if (def_.kind == UdfKind::kClassifier) {
          if (objs->IsNull(r)) continue;
          obj = objs->Int64At(r);
        }
        const uint32_t at = static_cast<uint32_t>(sel_.size());
        keys_.push_back({ViewKey{ids.Int64At(r), obj}, at, at + 1});
        sel_.push_back(static_cast<uint32_t>(r));
      }
      first_col = static_cast<size_t>(val_idx_);
    }
    // Ticks are drawn from the store's clock only for new keys (STORE runs
    // on the driver thread, so no other tick is drawn in between), keeping
    // tick sequences independent of how many keys were already present.
    const int64_t stored = view->Put(
        keys_, sel_, std::span<const ColumnBuilder>(in->cols()).subspan(first_col),
        ctx_->views->current_tick() + 1, ctx_->query_id, &inserted_,
        /*absent=*/verdict);
    // Spent: the misses are present now.
    in->set_view_hits({});
    if (stored > 0) ctx_->views->NextAccessTicks(static_cast<uint64_t>(stored));
    int64_t rows = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (inserted_[i] == 0) continue;
      // Detector keys are charged their rows plus the presence marker.
      const int64_t charged =
          def_.kind == UdfKind::kDetector
              ? static_cast<int64_t>(keys_[i].end - keys_[i].begin) + 1
              : 1;
      ctx_->Charge(CostCategory::kMaterialize,
                   ctx_->costs.materialize_ms_per_row *
                       static_cast<double>(charged));
      rows += charged;
    }
    if (rows > 0) {
      if (ctx_->active_stats != nullptr) {
        ctx_->active_stats->rows_materialized += rows;
      }
      if (materialized_ != nullptr) {
        materialized_->Increment(static_cast<double>(rows));
      }
    }
    if (placeholders) {
      keep_.resize(n);
      for (size_t r = 0; r < n; ++r) keep_[r] = objs->IsNull(r) ? 0 : 1;
      in->Filter(keep_);
    }
  }

  OperatorPtr child_;
  UdfDef def_;
  std::string view_name_;
  int id_idx_;
  int obj_idx_;
  int val_idx_;
  obs::Counter* materialized_ = nullptr;
  // Per-chunk scratch, reused across Next() calls.
  std::vector<MaterializedView::KeyRows> keys_;
  std::vector<uint32_t> sel_;
  std::vector<uint8_t> inserted_;
  std::vector<uint8_t> keep_;
};

// ---------------------------------------------------------------------------
// Project: column references move their column; any other expression is
// evaluated row by row.
// ---------------------------------------------------------------------------

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, OperatorPtr child,
            std::vector<expr::ExprPtr> exprs, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        exprs_(std::move(exprs)) {
    for (const expr::ExprPtr& e : exprs_) {
      const bool column = e->kind() == expr::ExprKind::kColumn ||
                          e->kind() == expr::ExprKind::kUdfCall;
      source_.push_back(column ? child_->output_schema().IndexOf(e->name())
                               : -1);
    }
  }

  Result<Chunk> Next() override {
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (in.empty()) return Chunk(output_schema_);
    const size_t n = in.num_rows();
    std::vector<ColumnBuilder> cols(exprs_.size());
    bool computed = false;
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (source_[i] >= 0) {
        cols[i] = in.col(static_cast<size_t>(source_[i]));
      } else {
        computed = true;
      }
    }
    // Row-major, as the interpreter ran it, so the first error is the same.
    for (size_t r = 0; computed && r < n; ++r) {
      const Row row = in.RowAt(r);
      for (size_t i = 0; i < exprs_.size(); ++i) {
        if (source_[i] >= 0) continue;
        EVA_ASSIGN_OR_RETURN(Value v,
                             expr::EvaluateScalar(*exprs_[i], in.schema(), row));
        cols[i].Append(v);
      }
    }
    return Chunk(output_schema_, std::move(cols), n);
  }

 private:
  OperatorPtr child_;
  std::vector<expr::ExprPtr> exprs_;
  std::vector<int> source_;  // input column of a column reference, else -1
};

// ---------------------------------------------------------------------------
// Aggregate: COUNT(*) GROUP BY <cols>
// ---------------------------------------------------------------------------

class AggregateOp : public Operator {
 public:
  AggregateOp(ExecContext* ctx, OperatorPtr child,
              std::vector<std::string> group_by, Schema schema)
      : Operator(ctx, std::move(schema)),
        child_(std::move(child)),
        group_by_(std::move(group_by)) {}

  Result<Chunk> Next() override {
    if (done_) return Chunk(output_schema_);
    done_ = true;
    std::vector<Row> group_rows;
    std::vector<int64_t> counts;
    std::map<std::string, size_t> index;
    while (true) {
      EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
      if (in.empty()) break;
      std::vector<int> idxs;
      for (const std::string& col : group_by_) {
        int i = in.schema().IndexOf(col);
        if (i < 0) return Status::BindError("unknown group column: " + col);
        idxs.push_back(i);
      }
      for (size_t r = 0; r < in.num_rows(); ++r) {
        std::string key;
        Row group;
        for (int i : idxs) {
          Value v = in.col(static_cast<size_t>(i)).At(r);
          key += v.ToString();
          key += '\x1f';
          group.push_back(std::move(v));
        }
        auto [it, inserted] = index.emplace(key, group_rows.size());
        if (inserted) {
          group_rows.push_back(std::move(group));
          counts.push_back(0);
        }
        ++counts[it->second];
      }
    }
    Chunk out(output_schema_);
    for (size_t i = 0; i < group_rows.size(); ++i) {
      Row row = group_rows[i];
      row.push_back(Value(counts[i]));
      out.AppendRow(row);
    }
    return out;
  }

 private:
  OperatorPtr child_;
  std::vector<std::string> group_by_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitOp : public Operator {
 public:
  LimitOp(ExecContext* ctx, OperatorPtr child, int64_t limit)
      : Operator(ctx, child->output_schema()),
        child_(std::move(child)),
        remaining_(limit) {}

  Result<Chunk> Next() override {
    if (remaining_ <= 0) return Chunk(output_schema_);
    EVA_ASSIGN_OR_RETURN(Chunk in, child_->Next());
    if (static_cast<int64_t>(in.num_rows()) > remaining_) {
      std::vector<uint8_t> keep(in.num_rows(), 0);
      std::fill_n(keep.begin(), remaining_, 1);
      in.Filter(keep);
    }
    remaining_ -= static_cast<int64_t>(in.num_rows());
    return in;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

// ---------------------------------------------------------------------------
// StatsOp: transparent decorator that meters the wrapped operator. Rows
// out per operator kind always flow to the metrics registry; when an
// EXPLAIN ANALYZE drain supplies a node-stats map, it additionally tracks
// per-node rows/batches/time and scopes ctx->active_stats so leaf helpers
// (UDF runners, view probes, stores) attribute their events to this node.
// ---------------------------------------------------------------------------

class StatsOp : public Operator {
 public:
  StatsOp(ExecContext* ctx, OperatorPtr inner, const plan::PlanNode* node,
          obs::OperatorStats* stats)
      : Operator(ctx, inner->output_schema()),
        inner_(std::move(inner)),
        stats_(stats) {
    if (ctx->obs_registry != nullptr) {
      rows_out_ = ctx->obs_registry->GetCounter(
          "eva_operator_rows_total", "Rows emitted per physical operator",
          {{"op", plan::PlanKindName(node->kind())}});
    }
  }

  Result<Chunk> Next() override {
    if (stats_ == nullptr) {
      EVA_ASSIGN_OR_RETURN(Chunk out, inner_->Next());
      if (rows_out_ != nullptr) {
        rows_out_->Increment(static_cast<double>(out.num_rows()));
      }
      return out;
    }
    obs::OperatorStats* prev = ctx_->active_stats;
    ctx_->active_stats = stats_;
    double sim0 = ctx_->clock->TotalMs();
    auto wall0 = std::chrono::steady_clock::now();
    Result<Chunk> r = inner_->Next();
    stats_->sim_ms += ctx_->clock->TotalMs() - sim0;
    stats_->wall_us +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    ++stats_->batches;
    if (r.ok()) {
      stats_->rows_out += static_cast<int64_t>(r.value().num_rows());
      if (rows_out_ != nullptr) {
        rows_out_->Increment(static_cast<double>(r.value().num_rows()));
      }
    }
    ctx_->active_stats = prev;
    return r;
  }

 private:
  OperatorPtr inner_;
  obs::OperatorStats* stats_;
  obs::Counter* rows_out_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

namespace {

Result<OperatorPtr> BuildOperatorImpl(const plan::PlanNodePtr& node,
                                      ExecContext* ctx) {
  switch (node->kind()) {
    case PlanKind::kVideoScan: {
      auto* scan = static_cast<const plan::VideoScanNode*>(node.get());
      return OperatorPtr(new VideoScanOp(ctx, scan->lo(), scan->hi()));
    }
    case PlanKind::kFilter: {
      auto* filter = static_cast<const plan::FilterNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return OperatorPtr(
          new FilterOp(ctx, std::move(child), filter->predicate()));
    }
    case PlanKind::kApply: {
      auto* apply = static_cast<const plan::ApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return ApplyOp::Make(ctx, std::move(child), apply->udf(),
                           apply->emit_presence_placeholders());
    }
    case PlanKind::kCondApply: {
      auto* apply = static_cast<const plan::CondApplyNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return CondApplyOp::Make(ctx, std::move(child), apply->udf());
    }
    case PlanKind::kViewJoin: {
      auto* join = static_cast<const plan::ViewJoinNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return ViewJoinOp::Make(ctx, std::move(child), join->udf(),
                              join->view_name(),
                              join->scan_all_for_dedup(),
                              join->residual_predicate());
    }
    case PlanKind::kStore: {
      auto* store = static_cast<const plan::StoreNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return StoreOp::Make(ctx, std::move(child), store->udf(),
                           store->view_name());
    }
    case PlanKind::kProject: {
      auto* proj = static_cast<const plan::ProjectNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      Schema schema;
      for (size_t i = 0; i < proj->exprs().size(); ++i) {
        DataType type = DataType::kString;
        const expr::ExprPtr& e = proj->exprs()[i];
        int idx = e->kind() == expr::ExprKind::kColumn
                      ? child->output_schema().IndexOf(e->name())
                      : -1;
        if (idx >= 0) type = child->output_schema().field(
                          static_cast<size_t>(idx)).type;
        schema.AddField({proj->names()[i], type});
      }
      return OperatorPtr(new ProjectOp(ctx, std::move(child), proj->exprs(),
                                       std::move(schema)));
    }
    case PlanKind::kLimit: {
      auto* limit = static_cast<const plan::LimitNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      return OperatorPtr(
          new LimitOp(ctx, std::move(child), limit->limit()));
    }
    case PlanKind::kAggregate: {
      auto* agg = static_cast<const plan::AggregateNode*>(node.get());
      EVA_ASSIGN_OR_RETURN(OperatorPtr child,
                           BuildOperator(node->child(), ctx));
      Schema schema;
      for (const std::string& col : agg->group_by()) {
        int idx = child->output_schema().IndexOf(col);
        DataType type = idx >= 0 ? child->output_schema()
                                        .field(static_cast<size_t>(idx))
                                        .type
                                 : DataType::kString;
        schema.AddField({col, type});
      }
      schema.AddField({"count", DataType::kInt64});
      return OperatorPtr(new AggregateOp(ctx, std::move(child),
                                         agg->group_by(),
                                         std::move(schema)));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<OperatorPtr> BuildOperator(const plan::PlanNodePtr& node,
                                  ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr op, BuildOperatorImpl(node, ctx));
  // Wrap only when someone is listening: per-node stats (EXPLAIN ANALYZE)
  // or the metrics registry. The plain execution path keeps its exact
  // pre-observability operator tree.
  if (ctx->node_stats == nullptr && ctx->obs_registry == nullptr) return op;
  obs::OperatorStats* stats =
      ctx->node_stats != nullptr ? &(*ctx->node_stats)[node.get()] : nullptr;
  return OperatorPtr(new StatsOp(ctx, std::move(op), node.get(), stats));
}

Result<Batch> ExecutePlan(const plan::PlanNodePtr& plan, ExecContext* ctx) {
  EVA_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperator(plan, ctx));
  Batch result(root->output_schema());
  while (true) {
    EVA_ASSIGN_OR_RETURN(Chunk chunk, root->Next());
    if (chunk.empty()) break;
    chunk.AppendTo(&result);
  }
  ctx->metrics->rows_out += static_cast<int64_t>(result.num_rows());
  return result;
}

}  // namespace eva::exec
