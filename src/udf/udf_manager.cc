#include "udf/udf_manager.h"

#include <chrono>

#include "obs/profiler.h"
#include "symbolic/predicate_intern.h"
#include "symbolic/subtract.h"

namespace eva::udf {

namespace {

/// RAII accumulator for the symbolic wall-time counter.
class WallAccumulator {
 public:
  explicit WallAccumulator(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~WallAccumulator() {
    *sink_ += std::chrono::duration_cast<
                  std::chrono::duration<double, std::micro>>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const symbolic::Predicate& UdfManager::Coverage(
    const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false_;
  return it->second.coverage;
}

bool UdfManager::HasCoverage(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && !it->second.coverage.IsFalse();
}

void UdfManager::BumpEpoch(UdfEntry* entry) {
  entry->epoch = ++epoch_counter_;
  entry->index.reset();
  entry->complement.reset();
  entry->complement_valid = false;
}

const symbolic::CellIndex* UdfManager::EnsureIndex(
    const UdfEntry& entry) const {
  if (entry.index == nullptr || entry.index_epoch != entry.epoch) {
    entry.index = symbolic::CellIndex::Build(entry.coverage);
    entry.index_epoch = entry.epoch;
  }
  return entry.index.get();
}

uint64_t UdfManager::CacheHash(const symbolic::Predicate& q,
                               const symbolic::SymbolicBudget& budget) {
  uint64_t h = symbolic::CanonicalPredicateHash(q);
  h = symbolic::FnvMix64(h, budget.max_conjuncts);
  h = symbolic::FnvMix64(h, static_cast<uint64_t>(budget.max_reduce_passes));
  return h;
}

Result<symbolic::Predicate> UdfManager::InterCoverage(
    const std::string& key, const symbolic::Predicate& q,
    const symbolic::SymbolicBudget& budget, SymbolicOpStats* stats) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) {
    // And(FALSE, q) yields no pairs, so the brute-force form returns FALSE.
    return symbolic::Predicate::False();
  }
  const UdfEntry& entry = it->second;
  WallAccumulator wall(&symbolic_wall_us_);
  if (!symbolic_fastpath_) {
    return symbolic::Predicate::Inter(entry.coverage, q, budget);
  }
  const uint64_t qhash = CacheHash(q, budget);
  symbolic::OpCache::Entry* slot = op_cache_.Find(entry.epoch, qhash, q);
  if (slot != nullptr && slot->has_inter) {
    ++op_cache_.stats.hits;
    if (stats != nullptr) ++stats->cache_hits;
    if (!slot->inter_status.ok()) return slot->inter_status;
    return slot->inter_value;
  }
  ++op_cache_.stats.misses;
  if (stats != nullptr) ++stats->cache_misses;
  symbolic::PruneStats prune;
  Result<symbolic::Predicate> r = symbolic::IndexedAnd(
      entry.coverage, EnsureIndex(entry), q, budget, &prune);
  cells_pruned_total_ += prune.cells_pruned;
  if (stats != nullptr) stats->cells_pruned += prune.cells_pruned;
  if (slot == nullptr) slot = op_cache_.Insert(entry.epoch, qhash, q);
  slot->has_inter = true;
  if (r.ok()) {
    slot->inter_status = Status::OK();
    slot->inter_value = r.value();
  } else {
    slot->inter_status = r.status();
  }
  return r;
}

Result<symbolic::Predicate> UdfManager::DiffCoverage(
    const std::string& key, const symbolic::Predicate& q,
    const symbolic::SymbolicBudget& budget, SymbolicOpStats* stats) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) {
    // Replicates Predicate::Diff's p1-false path exactly.
    symbolic::Predicate out = q;
    out.Reduce(budget);
    return out;
  }
  const UdfEntry& entry = it->second;
  WallAccumulator wall(&symbolic_wall_us_);
  if (!symbolic_fastpath_) {
    return symbolic::Predicate::Diff(entry.coverage, q, budget);
  }
  const uint64_t qhash = CacheHash(q, budget);
  symbolic::OpCache::Entry* slot = op_cache_.Find(entry.epoch, qhash, q);
  if (slot != nullptr && slot->has_diff) {
    ++op_cache_.stats.hits;
    if (stats != nullptr) ++stats->cache_hits;
    if (!slot->diff_status.ok()) return slot->diff_status;
    return slot->diff_value;
  }
  ++op_cache_.stats.misses;
  if (stats != nullptr) ++stats->cache_misses;
  // Predicate::Diff(coverage, q) = And(Not(coverage), q). Not() is cubic
  // in coverage cells and q-independent, so reuse the per-epoch cached
  // complement and replay the same And — identical inputs, identical
  // result (including a replayed budget-exhaustion error from Not).
  Result<symbolic::Predicate> r =
      EnsureComplement(entry, budget).ok()
          ? symbolic::Predicate::And(*entry.complement, q, budget)
          : Result<symbolic::Predicate>(entry.complement_status);
  if (slot == nullptr) slot = op_cache_.Insert(entry.epoch, qhash, q);
  slot->has_diff = true;
  if (r.ok()) {
    slot->diff_status = Status::OK();
    slot->diff_value = r.value();
  } else {
    slot->diff_status = r.status();
  }
  return r;
}

const Status& UdfManager::EnsureComplement(
    const UdfEntry& entry, const symbolic::SymbolicBudget& budget) const {
  if (!entry.complement_valid || entry.complement_epoch != entry.epoch ||
      entry.complement_budget_conjuncts != budget.max_conjuncts ||
      entry.complement_budget_passes != budget.max_reduce_passes) {
    auto not_cov = symbolic::Predicate::Not(entry.coverage, budget);
    entry.complement_status = not_cov.status();
    entry.complement =
        not_cov.ok() ? std::make_shared<const symbolic::Predicate>(
                           not_cov.MoveValue())
                     : nullptr;
    entry.complement_valid = true;
    entry.complement_epoch = entry.epoch;
    entry.complement_budget_conjuncts = budget.max_conjuncts;
    entry.complement_budget_passes = budget.max_reduce_passes;
  }
  return entry.complement_status;
}

bool UdfManager::Covers(const std::string& key, const symbolic::Predicate& q,
                        const symbolic::SymbolicBudget& budget) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) {
    symbolic::Predicate out = q;  // DiffCoverage's p1-false path
    out.Reduce(budget);
    return out.DefinitelyFalse();
  }
  WallAccumulator wall(&symbolic_wall_us_);
  if (!EnsureComplement(it->second, budget).ok()) return false;
  auto diff = symbolic::Predicate::And(*it->second.complement, q, budget);
  return diff.ok() && diff.value().DefinitelyFalse();
}

void UdfManager::UpdateCoverage(const std::string& key,
                                const symbolic::Predicate& q,
                                const symbolic::SymbolicBudget& budget) {
  obs::ProfScope prof("symbolic");
  WallAccumulator wall(&symbolic_wall_us_);
  if (journal_enabled_) {
    journal_.push_back({CoverageOp::Kind::kUnion, key, q});
  }
  UdfEntry& entry = entries_[key];
  bool changed;
  if (symbolic_fastpath_ && entry.reduced_fixpoint) {
    bool fixpoint = true;
    changed = entry.coverage.UnionIncrementalInPlace(q, budget, &fixpoint);
    entry.reduced_fixpoint = fixpoint;
  } else {
    // Union(p_u, q) spelled out so the reduction's fixpoint bit is
    // observable; identical to Predicate::Union's append + Reduce.
    symbolic::Predicate u = entry.coverage;
    for (const symbolic::Conjunct& c : q.conjuncts()) u.AddConjunct(c);
    entry.reduced_fixpoint = u.Reduce(budget);
    changed = !symbolic::PredicateIdentical(u, entry.coverage);
    entry.coverage = std::move(u);
  }
  if (changed) BumpEpoch(&entry);
}

void UdfManager::RetractCoverage(const std::string& key,
                                 const symbolic::Predicate& evicted,
                                 const symbolic::SymbolicBudget& budget) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.coverage.IsFalse()) return;
  obs::ProfScope prof("symbolic");
  WallAccumulator wall(&symbolic_wall_us_);
  Result<symbolic::Predicate> retracted =
      symbolic::Subtract(it->second.coverage, evicted, budget);
  if (retracted.ok()) {
    if (symbolic::PredicateIdentical(retracted.value(),
                                     it->second.coverage)) {
      return;  // eviction missed this coverage entirely: nothing moved
    }
    it->second.coverage = retracted.MoveValue();
    // Subtract re-reduces, but its fixpoint bit is not surfaced; the next
    // union runs the full reduction and restores it.
    it->second.reduced_fixpoint = false;
  } else {
    // Budget blown: give up the whole aggregated predicate rather than
    // keep a claim over tuples the store no longer holds.
    it->second.coverage = symbolic::Predicate::False();
    it->second.reduced_fixpoint = true;
  }
  BumpEpoch(&it->second);
}

void UdfManager::SetCoverage(const std::string& key,
                             symbolic::Predicate coverage) {
  if (journal_enabled_) {
    journal_.push_back({CoverageOp::Kind::kSet, key, coverage});
  }
  UdfEntry& entry = entries_[key];
  if (symbolic::PredicateIdentical(entry.coverage, coverage)) {
    return;  // no-op rollback/reload: keep the epoch and cached results
  }
  entry.coverage = std::move(coverage);
  // Loaded wholesale: reduction state unknown until the next full Union.
  entry.reduced_fixpoint = false;
  BumpEpoch(&entry);
}

void UdfManager::RecordInvocations(const std::string& key, int64_t total,
                                   int64_t distinct_new) {
  UdfEntry& entry = entries_[key];
  entry.total_invocations += total;
  entry.distinct_invocations += distinct_new;
}

int UdfManager::CoverageAtomCount(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return it->second.coverage.AtomCount();
}

uint64_t UdfManager::CoverageEpoch(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return it->second.epoch;
}

}  // namespace eva::udf
