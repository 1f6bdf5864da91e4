#ifndef EVA_STORAGE_VIEW_STORE_H_
#define EVA_STORAGE_VIEW_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/column_segment.h"

namespace eva::storage {

/// Per-segment bookkeeping for segment-granular eviction (src/lifecycle/).
/// A segment is a contiguous frame range [segment_id * segment_frames,
/// (segment_id + 1) * segment_frames); classifier keys (frame, obj) fall in
/// the segment of their frame. Ticks come from ViewStore::NextAccessTicks()
/// and are assigned only from driver-thread call sites, so they are
/// deterministic at any worker-thread count.
struct SegmentInfo {
  int64_t keys = 0;
  int64_t rows = 0;
  uint64_t created_tick = 0;
  uint64_t last_access_tick = 0;
  int64_t last_access_query = -1;
};

/// Snapshot of one segment handed to eviction policies.
struct SegmentStats {
  int64_t segment_id = 0;
  int64_t first_frame = 0;  // covered frame range [first_frame, frame_end)
  int64_t frame_end = 0;
  double bytes = 0;
  SegmentInfo info;
};

/// What EvictSegment removed — the lifecycle manager turns the frame range
/// into the retraction predicate p_v.
struct EvictedSegment {
  int64_t first_frame = 0;
  int64_t frame_end = 0;
  int64_t keys = 0;
  int64_t rows = 0;
  double bytes = 0;
};

/// Outcome of one key of a ProbeBatch. kHitSkipped: the key is present but
/// its segment's zone map proved the caller's residual predicate
/// unsatisfiable, so its rows were not materialized (and must not be
/// charged as view reads).
enum class ProbeStatus : uint8_t { kMiss = 0, kHit, kHitSkipped };

struct ProbeOutcome {
  ProbeStatus status = ProbeStatus::kMiss;
  int32_t seg_index = -1;  // into ProbeResult::segments (kHit only)
  int32_t rows_begin = 0;  // row offset within the segment (kHit only)
  int32_t rows_count = 0;  // stored row count (kHit and kHitSkipped)
};

/// Result of one batch probe. Hits in a segment's sealed part are
/// zero-copy: they reference rows inside pinned ColumnarSegment snapshots,
/// which are immutable (a seal swaps in a fresh one), so the references
/// stay valid after the probe's lock is released, under concurrent Puts,
/// seals and eviction. Hits in a segment's open part are copied out, under
/// the lock and lane to lane, into one per-batch segment of plain typed
/// lanes. Either way the caller reads the cells from segment(oc).cols[c]
/// (ColumnBuilder::AppendRange decodes them, At or RowAt reads one).
/// Reusable across batches (Clear keeps capacity).
struct ProbeResult {
  std::vector<ProbeOutcome> outcomes;  // parallel to the probed keys
  /// Snapshots of the segments the batch hit, pinned for the caller.
  std::vector<std::shared_ptr<const ColumnarSegment>> segments;
  int64_t segments_probed = 0;   // distinct segment runs zone-checked
  int64_t segments_skipped = 0;  // runs rejected by the zone callback
  /// Split-block Bloom filter outcomes over sealed parts (zero when
  /// segments carry no filter). A negative proves the key absent from the
  /// sealed part, so its key-index search was skipped; a false positive
  /// paid the search and still missed there.
  int64_t bloom_hits = 0;
  int64_t bloom_negatives = 0;
  int64_t bloom_fps = 0;

  const ColumnarSegment& segment(const ProbeOutcome& oc) const {
    return *segments[static_cast<size_t>(oc.seg_index)];
  }

  void Clear() {
    outcomes.clear();
    segments.clear();
    segments_probed = 0;
    segments_skipped = 0;
    bloom_hits = 0;
    bloom_negatives = 0;
    bloom_fps = 0;
  }
};

/// Zone-map admission callback: returns false when no stored row of the
/// segment can satisfy the caller's residual predicate. Invoked under the
/// view lock, once per segment run per batch, with the zone of the whole
/// segment (sealed and open rows) — it must not reenter the view and must
/// be a pure function of the zone (determinism).
using ZoneCheckFn = std::function<bool(const SegmentZone&)>;

/// Cumulative seal-time codec accounting, shared by every view of a
/// ViewStore (atomics: seals happen under per-view locks on any thread).
/// Monotone — bytes are added each time a segment is sealed, so the
/// engine can publish them as `_total` counters.
struct SealTotals {
  std::atomic<int64_t> segments_sealed{0};
  std::atomic<int64_t> raw_bytes{0};
  std::atomic<int64_t> encoded_bytes{0};
  std::atomic<int64_t> codec_cols[ColumnVec::kNumCodecs] = {};
};

/// Current (not cumulative) codec footprint of one view's sealed segments
/// — the `.views` shell listing and /views snapshot surface it.
struct ViewCompressionStats {
  int64_t segments = 0;         // segments with any keys
  int64_t sealed_segments = 0;  // of those, sealed with no open rows
  int64_t raw_bytes = 0;        // plain columnar footprint of sealed ones
  int64_t encoded_bytes = 0;    // held footprint of sealed ones
};

/// Materialized view of a UDF's results, keyed by input tuple. Presence is
/// tracked separately from rows so that "frame was processed, zero objects
/// detected" is distinguishable from "frame never processed" — the LEFT
/// OUTER JOIN + IS NULL pass-through guard of the materialization-aware
/// rewrite (§4.4, Fig. 4) depends on this.
///
/// Layout (docs/STORAGE.md): the view is a map of frame-range segments.
/// Each segment holds its rows exactly once, as typed column lanes: an
/// immutable sealed part (codec-compressed, Bloom-filtered) plus an open
/// SegmentBuilder that Put appends to. A seal merges the two and re-runs
/// the codecs: before budget enforcement and persistence
/// (SealAllSegments), when a probed segment's bytes are accounted, and
/// when a frame-keyed segment holds every frame of its range — never on a
/// probe.
///
/// Concurrency (docs/RUNTIME.md, docs/STORAGE.md): probes (TryGet/
/// ProbeBatch) take a shared lock and may run concurrently from any number
/// of runtime workers; Put, seals and eviction take it exclusively. What a
/// probe returns stays valid after the lock is released (see ProbeResult).
class MaterializedView {
 public:
  MaterializedView(std::string name, Schema value_schema)
      : name_(std::move(name)), value_schema_(std::move(value_schema)) {}

  const std::string& name() const { return name_; }
  const Schema& value_schema() const { return value_schema_; }

  /// Point probe: a copy of the rows stored for `key` (empty when the UDF
  /// produced none), std::nullopt when the key is absent.
  std::optional<std::vector<Row>> TryGet(const ViewKey& key) const;

  /// Batch probe: one lock acquisition for the whole batch, a
  /// cursor-assisted search per key over each sealed part (O(1) per key
  /// for ascending batches), a hash lookup in each open part, and results
  /// that stay readable after the lock (see ProbeResult). When `can_match`
  /// is non-null it is consulted once per segment run; a rejected
  /// segment's hits come back kHitSkipped with no row references. Keys
  /// should be frame-ascending for the cursor to amortize, but any order
  /// is correct. Every touched segment is marked read for byte accounting
  /// (see SizeBytes).
  void ProbeBatch(const std::vector<ViewKey>& keys,
                  const ZoneCheckFn& can_match, ProbeResult* out) const;

  /// Rows of one key in a batch Put: positions [begin, end) of the
  /// caller's row selection.
  struct KeyRows {
    ViewKey key;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// Batch STORE under one exclusive lock. Key i records the UDF's
  /// results — the cells of `cols` at rows sel[keys[i].begin, keys[i].end),
  /// copied lane to lane into its segment's open part (a value column past
  /// the end of `cols` stores NULL). Keys are taken in order; a key already
  /// present (or inserted earlier in the batch) is skipped (append-only
  /// STORE semantics). `absent` promises that no key of the batch was in
  /// the view when the call began (ViewJoin missed them all): a key that
  /// ascends past every earlier one is then appended without a presence
  /// lookup. The j-th inserted key is stamped with tick `first_tick + j`
  /// and `query_id` for eviction scoring. Sets (*inserted)[i] and returns
  /// the number of keys inserted.
  int64_t Put(std::span<const KeyRows> keys, std::span<const uint32_t> sel,
              std::span<const ColumnBuilder> cols, uint64_t first_tick,
              int64_t query_id, std::vector<uint8_t>* inserted,
              bool absent = false);
  /// Keys with their rows as column lanes: the rows of keys[i] are cells
  /// [keys[i].begin, keys[i].end) of every column (a KeyRows selection
  /// over the identity).
  struct KeyedRows {
    std::vector<KeyRows> keys;
    std::vector<ColumnBuilder> cols;  // one per value field
  };

  /// Copies the rows of `keys` that are present, in the given order, lane
  /// to lane out of the sealed and open parts into `out` (absent keys are
  /// skipped) — the WAL's read-back of appended keys. A pure read: it
  /// seals nothing, and leaves the read flags, access stamps and probe
  /// counters alone, so logging never changes the view's accounting.
  void CopyRows(std::span<const ViewKey> keys, KeyedRows* out) const;

  /// Convenience form over whole value rows (reload, tests): row
  /// i's cell c goes to column c, cells past the end of a row are NULL.
  /// Returns whether the key was inserted.
  bool Put(const ViewKey& key, const std::vector<Row>& rows,
           uint64_t tick = 0, int64_t query_id = -1);

  /// Installs one segment read back from an .evaseg file: sorted keys,
  /// prefix row offsets (size keys + 1) and decoded columns. The columns
  /// are adopted as the segment's sealed part without a row round trip
  /// when the keys fill one empty segment; otherwise (a different segment
  /// width, or keys already present) each key goes through Put, existing
  /// keys winning.
  void AdoptSegment(const std::vector<ViewKey>& keys,
                    std::vector<int32_t> row_begin,
                    std::vector<ColumnVec> cols);

  /// Refreshes the access stamps of the segments of `frames` after
  /// successful probes (ViewJoin hits), in order, under one lock: frame i
  /// is stamped with tick `first_tick + i`. Frames whose segment holds no
  /// keys are skipped.
  void RecordAccesses(std::span<const int64_t> frames, uint64_t first_tick,
                      int64_t query_id);

  int64_t num_keys() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return num_keys_;
  }
  int64_t num_rows() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return num_rows_;
  }

  /// Estimated on-disk footprint of the materialized results (§5.2):
  /// under codecs, a segment probed or sealed by SealAllSegments since its
  /// last Put is charged its encoded bytes (its open rows are sealed
  /// first), any other segment the synthetic per-key/per-cell formula.
  double SizeBytes() const;

  /// Heap bytes the view holds (lane capacities of sealed and open parts,
  /// key indexes, Bloom blocks, zone maps) — what SizeBytes accounts for,
  /// measured instead of estimated.
  double HeapBytes() const;

  /// Segment-granular views of the footprint. Snapshot; bytes per segment
  /// as in SizeBytes().
  std::vector<SegmentStats> Segments() const;

  /// Drops every key whose frame falls in `segment_id`'s range and returns
  /// what was removed (zeroed result when the segment is empty/unknown).
  /// The lifecycle manager only evicts from the driver thread between
  /// queries.
  EvictedSegment EvictSegment(int64_t segment_id);

  /// Restores a segment's access stamps (persistence reload).
  void RestoreSegmentStamps(int64_t segment_id, const SegmentInfo& info);

  int64_t segment_frames() const { return segment_frames_; }
  /// Id of the segment holding `frame`'s keys. Floor division, so negative
  /// frames (never produced, but cheap to get right) still map to a stable
  /// segment.
  int64_t SegmentOf(int64_t frame) const {
    int64_t q = frame / segment_frames_;
    if (frame % segment_frames_ != 0 && frame < 0) --q;
    return q;
  }
  void set_segment_frames(int64_t frames) {
    segment_frames_ = frames > 0 ? frames : 1;
  }

  /// Seal-time storage configuration (codecs + Bloom). Takes effect at the
  /// next seal; the engine sets it before any Put. Reconstruction of
  /// values is bit-identical for every configuration.
  void set_build_options(const SegmentBuildOptions& options) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    build_options_ = options;
  }
  /// Sink for cumulative seal accounting (owned by the ViewStore).
  void set_seal_totals(SealTotals* totals) { seal_totals_ = totals; }

  /// Seals every segment with open rows. The lifecycle manager calls it
  /// before byte accounting so the footprint is the encoded one;
  /// persistence calls it so the on-disk codec matches the sealed state.
  /// Driver-thread cadence, but safe under concurrent probes (exclusive
  /// lock).
  void SealAllSegments() const;

  /// Sealed segments by id, sealing open rows first. Persistence runs it
  /// between queries.
  std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>>
  SealedSegments() const;

  /// Current codec footprint over segments with no open rows.
  ViewCompressionStats CompressionStats() const;

  /// Id of the last query that probed or materialized into this view
  /// (-1 when never accessed); the `.views` shell listing surfaces it.
  int64_t last_access_query() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return last_access_query_;
  }

  /// WAL append capture: while enabled, every key Put actually inserts
  /// (re-puts excluded) is recorded in insertion order. The engine drains
  /// the log at each group-commit point via TakeAppendedKeys, on the
  /// driver thread between queries.
  void set_capture_appends(bool enabled) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    capture_appends_ = enabled;
    if (!enabled) append_log_.clear();
  }
  std::vector<ViewKey> TakeAppendedKeys() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::vector<ViewKey> out;
    out.swap(append_log_);
    return out;
  }

  /// Deep copy: rows, segment stamps and read flags, settings. Sealed
  /// parts are immutable and shared.
  std::unique_ptr<MaterializedView> Clone() const;

 private:
  /// One frame-range segment: each key and row lives either in the sealed
  /// part or in the open builder, never in both.
  struct Segment {
    SegmentInfo info;
    SegmentZone zone;  // over sealed and open rows
    std::shared_ptr<const ColumnarSegment> sealed;  // null until sealed
    std::unique_ptr<SegmentBuilder> open;           // null when empty
    /// Probed or sealed by SealAllSegments since the last Put: the
    /// segment is charged its encoded bytes (see SegmentBytesLocked).
    /// Atomic: probes set it under the shared lock.
    mutable std::atomic<bool> read{false};
  };

  /// Key index of `key` in `s`'s sealed part (npos when absent there).
  /// `cursor` (optional) carries the key-index search position across
  /// ascending lookups in one segment, as ProbeBatch does.
  static size_t FindSealed(const Segment& s, const ViewKey& key,
                           size_t* cursor = nullptr);
  /// Merges the open builder into the sealed part and records seal
  /// accounting. Caller holds mu_ exclusively.
  void SealLocked(Segment* s) const;
  /// Seals the open rows of every segment that is charged encoded bytes,
  /// so SegmentBytesLocked can read them. Caller holds mu_ exclusively.
  void SealReadLocked() const;
  /// Charged footprint of one segment: with codecs on, the encoded bytes
  /// once the segment was probed or sealed by SealAllSegments since its
  /// last Put; the synthetic §5.2 formula otherwise (identical to the
  /// pre-codec accounting). Caller holds mu_, after SealReadLocked.
  double SegmentBytesLocked(const Segment& s) const;

  std::string name_;
  Schema value_schema_;
  mutable std::shared_mutex mu_;
  /// Mutable: a seal changes the representation, never the contents.
  mutable std::map<int64_t, Segment> segments_;
  int64_t num_keys_ = 0;
  int64_t num_rows_ = 0;
  int64_t segment_frames_ = 512;
  SegmentBuildOptions build_options_;
  SealTotals* seal_totals_ = nullptr;  // optional, ViewStore-owned
  int64_t last_access_query_ = -1;
  bool capture_appends_ = false;
  std::vector<ViewKey> append_log_;  // keys inserted since the last drain
};

/// Registry of materialized views, one per UDF signature (§3.1 step 2).
///
/// Concurrency: registry operations (GetOrCreate / Find / totals) are
/// guarded by a shared_mutex — concurrent lookups are shared; creation and
/// Clear are exclusive. View pointers are stable
/// for the registry's lifetime (unique_ptr-owned), so operators may cache
/// a MaterializedView* for a whole batch and go through that view's own
/// probe/materialize locking. views() requires external quiescence.
class ViewStore {
 public:
  /// Returns the view for `name`, creating it with `value_schema` when
  /// missing.
  MaterializedView* GetOrCreate(const std::string& name,
                                const Schema& value_schema);
  /// Returns the view or nullptr.
  MaterializedView* Find(const std::string& name);
  const MaterializedView* Find(const std::string& name) const;

  /// Total footprint across all views (the §5.2 storage number).
  double TotalSizeBytes() const;

  /// Heap bytes held by all views (see MaterializedView::HeapBytes).
  double HeapBytes() const;

  void Clear() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    views_.clear();
  }

  /// Requires quiescence: no concurrent GetOrCreate/Clear in flight.
  const std::map<std::string, std::unique_ptr<MaterializedView>>& views()
      const {
    return views_;
  }

  /// Draws `n` consecutive ticks of the monotone segment access clock and
  /// returns the first. Drawn only from driver-thread call sites (ViewJoin
  /// hits, STORE inserts), so the sequence is deterministic regardless of
  /// worker-thread count.
  uint64_t NextAccessTicks(uint64_t n) {
    return segment_clock_.fetch_add(n) + 1;
  }
  /// Current reading of the access clock without advancing it (eviction
  /// policies use tick distance as a fine-grained recency measure).
  uint64_t current_tick() const { return segment_clock_.load(); }

  /// WAL append capture across the whole registry: applies to every
  /// existing view and to views created later (GetOrCreate inherits it).
  void set_capture_appends(bool enabled) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    capture_appends_ = enabled;
    for (auto& [name, view] : views_) view->set_capture_appends(enabled);
  }

  /// Segment width (frames) applied to views created after the call.
  /// The engine sets it once at construction, before any view exists.
  void set_segment_frames(int64_t frames) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    segment_frames_ = frames > 0 ? frames : 1;
  }

  /// Seal-time storage configuration applied to every existing view and
  /// inherited by views created later.
  void set_build_options(const SegmentBuildOptions& options) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    build_options_ = options;
    for (auto& [name, view] : views_) view->set_build_options(options);
  }

  /// Cumulative seal accounting across every view (engine metrics).
  const SealTotals& seal_totals() const { return seal_totals_; }

  /// Deep copies of every view plus the access clock, which Restore puts
  /// back (a failed WAL recovery rolls back with them). Seal totals are
  /// cumulative and are not rolled back.
  struct Snapshot {
    std::map<std::string, std::unique_ptr<MaterializedView>> views;
    uint64_t clock = 0;
  };
  Snapshot TakeSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    Snapshot out{{}, segment_clock_.load()};
    for (const auto& [name, view] : views_) out.views[name] = view->Clone();
    return out;
  }
  void Restore(Snapshot snapshot) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    views_ = std::move(snapshot.views);
    segment_clock_.store(snapshot.clock);
  }

  /// Seals every segment of every view (lifecycle accounting / save).
  /// Driver-thread cadence like views().
  void SealAllSegments() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [name, view] : views_) view->SealAllSegments();
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
  int64_t segment_frames_ = 512;
  SegmentBuildOptions build_options_;
  mutable SealTotals seal_totals_;
  bool capture_appends_ = false;
  std::atomic<uint64_t> segment_clock_{0};
};

}  // namespace eva::storage

#endif  // EVA_STORAGE_VIEW_STORE_H_
