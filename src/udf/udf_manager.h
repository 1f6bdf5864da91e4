#ifndef EVA_UDF_UDF_MANAGER_H_
#define EVA_UDF_UDF_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "symbolic/cell_index.h"
#include "symbolic/op_cache.h"
#include "symbolic/predicate.h"

namespace eva::udf {

/// A UDF's signature: its unique fingerprint across queries (§3.1 step 2).
/// `name` is the physical UDF, `inputs` the source table/view it reads.
struct UdfSignature {
  std::string name;
  std::string inputs;

  std::string Key() const { return name + "@" + inputs; }
};

/// Per-signature bookkeeping: the aggregated predicate p_u (union of the
/// predicates under which the UDF has been evaluated so far) plus
/// invocation statistics for reporting (Table 3).
struct UdfEntry {
  symbolic::Predicate coverage;  // p_u; starts FALSE (§4.1)
  int64_t total_invocations = 0;
  int64_t distinct_invocations = 0;
  /// Value of the manager-wide mutation counter when `coverage` last
  /// changed cell-for-cell. Tags the interval index and every cached
  /// Inter/Diff result; no-op unions (a fleet session re-asking a covered
  /// range) keep the epoch, so the shared cache stays warm.
  uint64_t epoch = 0;
  /// Whether `coverage` is known to sit at Algorithm 1's reduction
  /// fixpoint — the precondition for incremental union maintenance. False
  /// after budget-truncated reductions and wholesale SetCoverage loads;
  /// the next full Union restores it.
  bool reduced_fixpoint = true;
  /// Lazily built per-dimension interval index over `coverage`'s cells,
  /// valid while index_epoch == epoch. Mutable + shared: built on demand
  /// from const lookups and carried by the manager copy plain EXPLAIN
  /// takes.
  mutable std::shared_ptr<const symbolic::CellIndex> index;
  mutable uint64_t index_epoch = 0;
  /// Epoch-cached NOT(coverage) for DiffCoverage. Predicate::Diff(p, q)
  /// is AND(NOT(p), q); NOT is cubic in coverage cells and independent of
  /// q, so the fast path computes it once per (epoch, budget) and replays
  /// the same AND — bit-identical by construction. A failed NOT (budget
  /// exhaustion) is cached too, since Diff must replay that error.
  mutable std::shared_ptr<const symbolic::Predicate> complement;
  mutable Status complement_status;
  mutable bool complement_valid = false;
  mutable uint64_t complement_epoch = 0;
  mutable size_t complement_budget_conjuncts = 0;
  mutable int complement_budget_passes = 0;
};

/// One coverage transition captured while journaling is enabled — the
/// WAL's source of truth for p_u durability. Only unions (the optimizer's
/// UpdateCoverage input, pre-reduction) and wholesale sets (failure-path
/// rollback) are journaled; retractions are implied by the eviction
/// records that cause them, so replay never subtracts twice.
struct CoverageOp {
  enum class Kind { kUnion, kSet };
  Kind kind = Kind::kUnion;
  std::string key;
  symbolic::Predicate predicate;
};

/// Accumulating counters for the symbolic fast path, filled by
/// InterCoverage/DiffCoverage for the optimizer's report and metrics.
struct SymbolicOpStats {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cells_pruned = 0;
};

/// The paper's UDFMANAGER: maps UDF signatures to their aggregated
/// predicates and materialized-view bindings. The optimizer consults it to
/// derive p∩ / p– / p∪ for every candidate UDF occurrence.
///
/// All access is serialized on the driver thread (the service front-end's
/// single executor), which is what lets the epoch counter, interval
/// indexes, and the cross-session remainder cache live here without locks.
class UdfManager {
 public:
  /// Aggregated predicate p_u for `key`; FALSE when the UDF was never
  /// evaluated.
  const symbolic::Predicate& Coverage(const std::string& key) const;

  bool HasCoverage(const std::string& key) const;

  /// INTER(p_u, q) = p_u ∧ q, served from the epoch-tagged cache when this
  /// exact query was answered against this coverage version before, and
  /// computed via the interval index otherwise. Bit-identical to
  /// Predicate::Inter(Coverage(key), q) — including replayed
  /// budget-exhaustion errors — with `symbolic_fastpath` off it simply
  /// runs that brute-force form.
  Result<symbolic::Predicate> InterCoverage(
      const std::string& key, const symbolic::Predicate& q,
      const symbolic::SymbolicBudget& budget = {},
      SymbolicOpStats* stats = nullptr) const;

  /// DIFF(p_u, q) = ¬p_u ∧ q. Negation cannot be hull-pruned without
  /// changing the reduced shape, so the fast path here is pure
  /// memoization: the first computation per (coverage epoch, query) pays
  /// full price, every fleet repeat replays it.
  Result<symbolic::Predicate> DiffCoverage(
      const std::string& key, const symbolic::Predicate& q,
      const symbolic::SymbolicBudget& budget = {},
      SymbolicOpStats* stats = nullptr) const;

  /// True when DIFF(p_u, q) is FALSE: q asks for nothing the coverage
  /// misses. Shares DiffCoverage's per-epoch complement but neither reads
  /// nor fills its remainder cache, so it moves no cache counter.
  bool Covers(const std::string& key, const symbolic::Predicate& q,
              const symbolic::SymbolicBudget& budget = {}) const;

  /// p_u ← UNION(p_u, q) after the optimizer schedules evaluation of the
  /// UDF under predicate `q` (§4.1). Maintained incrementally (only pairs
  /// touching an appended cell are revisited) while the coverage sits at
  /// the reduction fixpoint; the epoch advances only when the coverage
  /// actually changes.
  void UpdateCoverage(const std::string& key, const symbolic::Predicate& q,
                      const symbolic::SymbolicBudget& budget = {});

  /// p_u ← p_u ∧ ¬p_v after a view segment covering `evicted` is dropped
  /// (lifecycle eviction), re-reduced by Algorithm 1's conjunct machinery
  /// so subsequent p∩ / p– splits never claim reuse for evicted tuples.
  /// When subtraction exceeds the symbolic budget the coverage is cleared
  /// entirely — sound, since underclaiming only costs recomputation.
  void RetractCoverage(const std::string& key,
                       const symbolic::Predicate& evicted,
                       const symbolic::SymbolicBudget& budget = {});

  /// Replaces p_u wholesale (persistence reload of a retracted predicate,
  /// fault rollback, WAL replay).
  void SetCoverage(const std::string& key, symbolic::Predicate coverage);

  /// Invocation accounting (drives Table 3's #DI / #TI columns).
  void RecordInvocations(const std::string& key, int64_t total,
                         int64_t distinct_new);

  const std::map<std::string, UdfEntry>& entries() const { return entries_; }

  /// Atom count of p_u — what Fig. 8b/Fig. 7 track over a workload.
  int CoverageAtomCount(const std::string& key) const;

  /// Coverage-change epoch for `key`; 0 when never mutated.
  uint64_t CoverageEpoch(const std::string& key) const;

  void Clear() {
    entries_.clear();
    journal_.clear();
    op_cache_.Clear();
    // epoch_counter_ keeps counting: a key re-created after Clear must not
    // alias cache entries from its previous life.
  }

  /// Master switch for the index + incremental-union + cache fast path;
  /// off runs the brute-force forms everywhere (the bench A/B control).
  void set_symbolic_fastpath(bool on) { symbolic_fastpath_ = on; }
  bool symbolic_fastpath() const { return symbolic_fastpath_; }

  /// Host wall time accumulated inside Inter/Diff/Update/Retract — the
  /// "optimizer symbolic wall time" bench_symbolic compares across fast
  /// path on/off. Never feeds simulated numbers.
  double symbolic_wall_us() const { return symbolic_wall_us_; }

  const symbolic::OpCache::Stats& symbolic_cache_stats() const {
    return op_cache_.stats;
  }
  int64_t symbolic_cells_pruned_total() const { return cells_pruned_total_; }

  /// WAL journaling of coverage transitions (driver-thread only, like
  /// every mutator). Enabling starts capture; the engine drains the
  /// journal into the log at each group-commit point.
  void set_journal_enabled(bool enabled) { journal_enabled_ = enabled; }
  bool journal_enabled() const { return journal_enabled_; }
  std::vector<CoverageOp> TakeJournal() {
    std::vector<CoverageOp> out;
    out.swap(journal_);
    return out;
  }

 private:
  /// Stamps a fresh epoch on `entry` after a real coverage change; the
  /// stale interval index is dropped lazily (the shared_ptr may live on in
  /// EXPLAIN copies).
  void BumpEpoch(UdfEntry* entry);
  /// The entry's interval index for its current epoch, building on demand.
  const symbolic::CellIndex* EnsureIndex(const UdfEntry& entry) const;
  /// The entry's NOT(coverage) for its current epoch and `budget`,
  /// computing it on demand; returns its status.
  const Status& EnsureComplement(const UdfEntry& entry,
                                 const symbolic::SymbolicBudget& budget) const;
  /// Cache key: canonical query hash mixed with the budget (the budget
  /// changes which Status a blown operation returns).
  static uint64_t CacheHash(const symbolic::Predicate& q,
                            const symbolic::SymbolicBudget& budget);

  std::map<std::string, UdfEntry> entries_;
  symbolic::Predicate false_;
  bool journal_enabled_ = false;
  std::vector<CoverageOp> journal_;

  bool symbolic_fastpath_ = true;
  uint64_t epoch_counter_ = 0;
  mutable symbolic::OpCache op_cache_;
  mutable int64_t cells_pruned_total_ = 0;
  mutable double symbolic_wall_us_ = 0;
};

}  // namespace eva::udf

#endif  // EVA_UDF_UDF_MANAGER_H_
