#ifndef EVA_OPTIMIZER_OPTIMIZER_H_
#define EVA_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "lifecycle/view_lifecycle.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parser/ast.h"
#include "plan/plan.h"
#include "storage/view_store.h"
#include "symbolic/predicate.h"
#include "symbolic/stats.h"
#include "udf/udf_manager.h"

namespace eva::optimizer {

/// Reuse algorithm under evaluation (§5.1): the engine runs identical
/// queries under each mode to produce Table 2 / Fig. 5.
enum class ReuseMode {
  kNoReuse = 0,
  kHashStash,  // operator-level recycler-graph reuse, detector only
  kFunCache,   // execution-time tuple-level function cache
  kEva,        // semantic UDF-centric reuse (this paper)
};

const char* ReuseModeName(ReuseMode mode);

struct OptimizerOptions {
  ReuseMode mode = ReuseMode::kEva;
  /// Eq. 4 vs. Eq. 2 for UDF-predicate ordering (Fig. 9 ablation).
  bool materialization_aware_ranking = true;
  /// Algorithm 2 vs. MIN-COST for logical UDFs (Fig. 10 ablation).
  bool logical_udf_reuse = true;
  /// Master reuse switch (MIN-COST-NOREUSE and the no-reuse baseline).
  bool reuse_enabled = true;
  /// Step 1 of the semantic reuse algorithm: UDFs cheaper than this are
  /// not worth materializing (filters out AREA-like functions).
  double candidate_cost_threshold_ms = 0.5;
  /// Symbolic fast path (interval-indexed pruning, incremental coverage
  /// union, epoch-tagged Inter/Diff cache). Results are bit-identical
  /// either way; off forces the brute-force forms (the bench A/B control).
  bool symbolic_fastpath = true;
  symbolic::SymbolicBudget budget;
};

/// Per-UDF-predicate diagnostics surfaced to the benchmark harnesses
/// (Fig. 7 atom counts, Fig. 9 rank comparisons).
struct UdfPredicateReport {
  std::string udf;
  double selectivity = 1;
  double sel_diff_fraction = 1;
  double rank_canonical = 0;
  double rank_materialization_aware = 0;
  int inter_atoms = 0;
  int diff_atoms = 0;
  int union_atoms = 0;
};

/// One lifecycle admission decision taken while planning (EVA mode with a
/// lifecycle manager attached). Denied UDFs run as plain APPLY — no view
/// join, no store, no coverage update.
struct AdmissionReport {
  std::string udf;
  bool admitted = true;
  double predicted_benefit_ms = 0;
  double write_cost_ms = 0;
};

struct OptimizeReport {
  std::vector<UdfPredicateReport> udf_predicates;  // in evaluation order
  std::vector<std::string> detector_views;         // Alg. 2 picks
  std::string detector_exec;                       // UDF run for remainder
  std::vector<AdmissionReport> admissions;         // lifecycle decisions
  std::string plan_text;
  /// Symbolic fast-path accounting for this query: remainder-cache hits
  /// and misses, and coverage cells the interval index let Inter skip.
  /// Driver-thread deterministic — a function of query history only, never
  /// of thread count or wall time.
  int64_t symbolic_cache_hits = 0;
  int64_t symbolic_cache_misses = 0;
  int64_t symbolic_cells_pruned = 0;
  /// A covered read: every candidate UDF is answered from its view with
  /// p– = FALSE, so the plan computes and stores nothing.
  bool covered = true;
};

/// Renders the admission decisions as "admission: ..." lines, appended to
/// plan_text by the optimizer and re-appended by EXPLAIN ANALYZE (which
/// regenerates the plan text).
std::string RenderAdmissionLines(const std::vector<AdmissionReport>& adm);

/// Renders the symbolic fast-path counters as one "symbolic: ..." line
/// (empty when all counters are zero), appended to plan_text alongside the
/// admission lines.
std::string RenderSymbolicLine(const OptimizeReport& report);

struct OptimizedQuery {
  plan::PlanNodePtr plan;
  OptimizeReport report;
  /// Simulated optimizer latency (charged to the clock by the engine).
  double optimizer_ms = 0;
};

/// EVA's Cascades-style optimizer with the semantic-reuse extensions of
/// §3.1: candidate-UDF identification, signature bookkeeping via the
/// UdfManager, materialization-aware ranking/model selection, and the two
/// rule-based transformations of §4.4.
class Optimizer {
 public:
  /// `views` (optional) lets the optimizer detect materializations that
  /// exist without aggregated-predicate coverage — e.g. views loaded from
  /// disk by a fresh session. Such views are joined and probed per tuple.
  /// `tracer` / `obs` (optional) receive symbolic-diff spans, coverage-atom
  /// histograms, and rank/model-selection metrics.
  /// `lifecycle` (optional) gates materialization through the view
  /// lifecycle manager's Eq. 3 admission policy; denied UDFs run as plain
  /// APPLY with no coverage update.
  Optimizer(OptimizerOptions options, const catalog::Catalog* catalog,
            udf::UdfManager* manager, const symbolic::StatsProvider* stats,
            exec::CostConstants costs,
            const storage::ViewStore* views = nullptr,
            obs::Tracer* tracer = nullptr,
            obs::MetricsRegistry* obs = nullptr,
            lifecycle::ViewLifecycleManager* lifecycle = nullptr)
      : options_(options),
        catalog_(catalog),
        manager_(manager),
        stats_(stats),
        costs_(costs),
        views_(views),
        tracer_(tracer),
        obs_(obs),
        lifecycle_(lifecycle) {}

  /// Rewrites a bound SELECT statement into a physical plan, updating the
  /// UdfManager's aggregated predicates for every scheduled UDF.
  Result<OptimizedQuery> Optimize(const parser::SelectStatement& stmt);

  const OptimizerOptions& options() const { return options_; }

 private:
  OptimizerOptions options_;
  const catalog::Catalog* catalog_;
  udf::UdfManager* manager_;
  const symbolic::StatsProvider* stats_;
  exec::CostConstants costs_;
  const storage::ViewStore* views_;
  obs::Tracer* tracer_;
  obs::MetricsRegistry* obs_;
  lifecycle::ViewLifecycleManager* lifecycle_;
};

}  // namespace eva::optimizer

#endif  // EVA_OPTIMIZER_OPTIMIZER_H_
