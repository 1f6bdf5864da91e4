#include "storage/view_store.h"

namespace eva::storage {

namespace {

// Rows [begin, end) of a column set — a sealed segment's ColumnVecs or an
// open builder's ColumnBuilders — as value rows.
template <typename Cols>
std::vector<Row> RowsOf(const Cols& cols, int32_t begin, int32_t end) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int32_t r = begin; r < end; ++r) {
    Row& row = rows.emplace_back();
    row.reserve(cols.size());
    for (const auto& col : cols) row.push_back(col.At(static_cast<size_t>(r)));
  }
  return rows;
}

}  // namespace

size_t MaterializedView::FindSealed(const Segment& s, const ViewKey& key,
                                    size_t* cursor) {
  const ColumnarSegment* sealed = s.sealed.get();
  if (sealed == nullptr ||
      !sealed->bloom.MayContain(HashViewKey(key.frame, key.obj))) {
    return ColumnarSegment::npos;
  }
  // In a frame-keyed segment without gaps a key sits at its frame's offset
  // from the first key; try that slot before the binary search.
  const int64_t offset = key.frame - sealed->key_frame(0);
  if (offset >= 0 && static_cast<size_t>(offset) < sealed->num_keys() &&
      sealed->key(static_cast<size_t>(offset)) == key) {
    return static_cast<size_t>(offset);
  }
  return sealed->FindKey(key.frame, key.obj, cursor);
}

std::optional<std::vector<Row>> MaterializedView::TryGet(
    const ViewKey& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = segments_.find(SegmentOf(key.frame));
  if (it == segments_.end()) return std::nullopt;
  const Segment& s = it->second;
  if (size_t idx = FindSealed(s, key); idx != ColumnarSegment::npos) {
    return RowsOf(s.sealed->cols, s.sealed->row_begin_at(idx),
                  s.sealed->row_begin_at(idx + 1));
  }
  const size_t k = s.open != nullptr ? s.open->Find(key) : SegmentBuilder::npos;
  if (k == SegmentBuilder::npos) return std::nullopt;
  return RowsOf(s.open->cols(), s.open->row_begin(k),
                s.open->row_begin(k + 1));
}

int64_t MaterializedView::Put(std::span<const KeyRows> keys,
                             std::span<const uint32_t> sel,
                             std::span<const ColumnBuilder> cols,
                             uint64_t first_tick, int64_t query_id,
                             std::vector<uint8_t>* inserted, bool absent) {
  inserted->assign(keys.size(), 0);
  int64_t count = 0;
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Consecutive keys mostly share a segment: reuse its lookup and the
  // sealed key-index cursor.
  int64_t cur_id = 0;
  auto it = segments_.end();
  size_t cursor = 0;
  ViewKey max_key;  // largest key so far in the batch
  for (size_t i = 0; i < keys.size(); ++i) {
    const ViewKey& key = keys[i].key;
    const int64_t seg_id = SegmentOf(key.frame);
    if (i == 0 || seg_id != cur_id || it == segments_.end()) {
      cur_id = seg_id;
      it = segments_.find(seg_id);
      cursor = 0;
    }
    // A key of an absent batch that ascends past every earlier one cannot
    // be present; any other key may repeat one inserted earlier.
    const bool ascends = i == 0 || max_key < key;
    if (ascends) max_key = key;
    if (!(absent && ascends) && it != segments_.end() &&
        (FindSealed(it->second, key, &cursor) != ColumnarSegment::npos ||
         (it->second.open != nullptr &&
          it->second.open->Find(key) != SegmentBuilder::npos))) {
      continue;
    }
    const uint64_t tick = first_tick + static_cast<uint64_t>(count);
    if (it == segments_.end()) {
      it = segments_.try_emplace(seg_id).first;
      it->second.zone = SegmentZone(value_schema_.num_fields());
      it->second.info.created_tick = tick;
    }
    Segment& s = it->second;
    s.read.store(false, std::memory_order_relaxed);
    if (s.open == nullptr) {
      s.open = std::make_unique<SegmentBuilder>(value_schema_.num_fields());
    }
    s.open->Append(key, cols,
                   sel.subspan(keys[i].begin, keys[i].end - keys[i].begin),
                   &s.zone);
    const int64_t nrows = keys[i].end - keys[i].begin;
    s.info.keys += 1;
    s.info.rows += nrows;
    s.info.last_access_tick = tick;
    s.info.last_access_query = query_id;
    num_keys_ += 1;
    num_rows_ += nrows;
    if (query_id >= 0) last_access_query_ = query_id;
    if (capture_appends_) append_log_.push_back(key);
    (*inserted)[i] = 1;
    ++count;
    // A frame-keyed segment holding every frame of its range is complete:
    // no further key can land in it, so it is sealed now, for good.
    if (s.info.keys == segment_frames_ && s.zone.obj_min == -1 &&
        s.zone.obj_max == -1) {
      SealLocked(&s);
      cursor = 0;
    }
  }
  return count;
}

void MaterializedView::CopyRows(std::span<const ViewKey> keys,
                                KeyedRows* out) const {
  out->keys.clear();
  out->cols.assign(value_schema_.num_fields(), ColumnBuilder());
  // Cells [begin, end) of every column of `src` onto the output lanes.
  auto append = [out](const auto& src, int32_t begin, int32_t end) {
    for (size_t c = 0; c < out->cols.size(); ++c) {
      out->cols[c].AppendRange(src[c], static_cast<size_t>(begin),
                               static_cast<size_t>(end - begin));
    }
    return static_cast<uint32_t>(end - begin);
  };
  uint32_t total = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = segments_.end();
  int64_t cur_id = 0;
  size_t cursor = 0;
  for (const ViewKey& key : keys) {
    const int64_t seg_id = SegmentOf(key.frame);
    if (it == segments_.end() || seg_id != cur_id) {
      cur_id = seg_id;
      it = segments_.find(seg_id);
      cursor = 0;
      if (it == segments_.end()) continue;
    }
    const Segment& s = it->second;
    uint32_t n = 0;
    if (size_t idx = FindSealed(s, key, &cursor);
        idx != ColumnarSegment::npos) {
      n = append(s.sealed->cols, s.sealed->row_begin_at(idx),
                 s.sealed->row_begin_at(idx + 1));
    } else if (size_t k = s.open != nullptr ? s.open->Find(key)
                                             : SegmentBuilder::npos;
               k != SegmentBuilder::npos) {
      n = append(s.open->cols(), s.open->row_begin(k),
                 s.open->row_begin(k + 1));
    } else {
      continue;
    }
    out->keys.push_back({key, total, total + n});
    total += n;
  }
}

bool MaterializedView::Put(const ViewKey& key, const std::vector<Row>& rows,
                           uint64_t tick, int64_t query_id) {
  std::vector<ColumnBuilder> cols(value_schema_.num_fields());
  std::vector<uint32_t> sel(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    sel[r] = static_cast<uint32_t>(r);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c < rows[r].size()) {
        cols[c].Append(rows[r][c]);
      } else {
        cols[c].AppendNull();
      }
    }
  }
  const KeyRows one{key, 0, static_cast<uint32_t>(rows.size())};
  std::vector<uint8_t> inserted;
  return Put(std::span<const KeyRows>(&one, 1), sel, cols, tick, query_id,
             &inserted) == 1;
}

void MaterializedView::AdoptSegment(const std::vector<ViewKey>& keys,
                                    std::vector<int32_t> row_begin,
                                    std::vector<ColumnVec> cols) {
  if (keys.empty()) return;
  const int64_t seg_id = SegmentOf(keys.front().frame);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const bool adoptable = SegmentOf(keys.back().frame) == seg_id &&
                         segments_.count(seg_id) == 0 &&
                         cols.size() == value_schema_.num_fields();
  if (!adoptable) {
    lock.unlock();
    for (size_t i = 0; i < keys.size(); ++i) {
      Put(keys[i], RowsOf(cols, row_begin[i], row_begin[i + 1]));
    }
    return;
  }
  Segment& s = segments_[seg_id];
  s.zone = SegmentZone(cols.size());
  for (const ViewKey& key : keys) s.zone.ObserveKey(key);
  const size_t nrows = static_cast<size_t>(row_begin.back());
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t r = 0; r < nrows; ++r) s.zone.cols[c].Observe(cols[c].At(r));
  }
  s.info.keys = static_cast<int64_t>(keys.size());
  s.info.rows = static_cast<int64_t>(nrows);
  s.sealed = PackSegment(keys, std::move(row_begin), std::move(cols),
                         build_options_);
  num_keys_ += s.info.keys;
  num_rows_ += s.info.rows;
  if (capture_appends_) {
    append_log_.insert(append_log_.end(), keys.begin(), keys.end());
  }
}

std::unique_ptr<MaterializedView> MaterializedView::Clone() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto out = std::make_unique<MaterializedView>(name_, value_schema_);
  for (const auto& [id, s] : segments_) {
    Segment& copy = out->segments_[id];
    copy.info = s.info;
    copy.zone = s.zone;
    copy.sealed = s.sealed;
    if (s.open != nullptr) copy.open = std::make_unique<SegmentBuilder>(*s.open);
    copy.read.store(s.read.load(std::memory_order_relaxed));
  }
  out->num_keys_ = num_keys_;
  out->num_rows_ = num_rows_;
  out->segment_frames_ = segment_frames_;
  out->build_options_ = build_options_;
  out->seal_totals_ = seal_totals_;
  out->last_access_query_ = last_access_query_;
  out->capture_appends_ = capture_appends_;
  out->append_log_ = append_log_;
  return out;
}

void MaterializedView::SealLocked(Segment* s) const {
  s->sealed = SealSegment(s->sealed.get(), *s->open, build_options_);
  s->open.reset();
  if (seal_totals_ != nullptr) {
    const ColumnarSegment& seg = *s->sealed;
    seal_totals_->segments_sealed.fetch_add(1, std::memory_order_relaxed);
    seal_totals_->raw_bytes.fetch_add(seg.raw_bytes,
                                      std::memory_order_relaxed);
    seal_totals_->encoded_bytes.fetch_add(seg.encoded_bytes,
                                          std::memory_order_relaxed);
    for (int c = 0; c < ColumnVec::kNumCodecs; ++c) {
      seal_totals_->codec_cols[c].fetch_add(seg.codec_cols[c],
                                            std::memory_order_relaxed);
    }
  }
}

void MaterializedView::SealAllSegments() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [seg_id, s] : segments_) {
    if (s.open != nullptr) SealLocked(&s);
    s.read.store(true, std::memory_order_relaxed);
  }
}

void MaterializedView::SealReadLocked() const {
  if (!build_options_.compress) return;
  for (auto& [seg_id, s] : segments_) {
    if (s.open != nullptr && s.read.load(std::memory_order_relaxed)) {
      SealLocked(&s);
    }
  }
}

std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>>
MaterializedView::SealedSegments() const {
  SealAllSegments();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<int64_t, std::shared_ptr<const ColumnarSegment>>> out;
  out.reserve(segments_.size());
  for (const auto& [seg_id, s] : segments_) {
    if (s.sealed != nullptr) out.emplace_back(seg_id, s.sealed);
  }
  return out;
}

ViewCompressionStats MaterializedView::CompressionStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ViewCompressionStats out;
  for (const auto& [seg_id, s] : segments_) {
    ++out.segments;
    if (s.sealed == nullptr || s.open != nullptr) continue;
    ++out.sealed_segments;
    out.raw_bytes += s.sealed->raw_bytes;
    out.encoded_bytes += s.sealed->encoded_bytes;
  }
  return out;
}

void MaterializedView::ProbeBatch(const std::vector<ViewKey>& keys,
                                  const ZoneCheckFn& can_match,
                                  ProbeResult* out) const {
  out->Clear();
  out->outcomes.reserve(keys.size());
  std::shared_lock<std::shared_mutex> lock(mu_);
  int64_t cur = INT64_MIN;
  bool first = true;
  const Segment* s = nullptr;
  bool admitted = true;
  int32_t sealed_slot = -1;  // out->segments index once this run is pinned
  size_t cursor = 0;
  // Rows copied out of open builders, shared by the whole batch.
  std::vector<ColumnBuilder> copied;
  int32_t copied_slot = -1;
  int32_t copied_rows = 0;
  for (const ViewKey& key : keys) {
    const int64_t seg_id = SegmentOf(key.frame);
    if (first || seg_id != cur) {
      first = false;
      cur = seg_id;
      cursor = 0;
      sealed_slot = -1;
      auto it = segments_.find(seg_id);
      s = it != segments_.end() ? &it->second : nullptr;
      if (s != nullptr) s->read.store(true, std::memory_order_relaxed);
      admitted = true;
      if (s != nullptr && can_match != nullptr) {
        ++out->segments_probed;
        if (!can_match(s->zone)) {
          admitted = false;
          ++out->segments_skipped;
        }
      }
    }
    ProbeOutcome outcome;
    if (s == nullptr) {
      out->outcomes.push_back(outcome);
      continue;
    }
    // Sealed part first. A Bloom negative proves the key absent there, so
    // the key-index search is skipped; only the cost differs.
    size_t idx = ColumnarSegment::npos;
    if (const ColumnarSegment* seg = s->sealed.get(); seg != nullptr) {
      if (seg->bloom.enabled() &&
          !seg->bloom.MayContain(HashViewKey(key.frame, key.obj))) {
        ++out->bloom_negatives;
      } else {
        idx = seg->FindKey(key.frame, key.obj, &cursor);
        if (seg->bloom.enabled()) {
          ++(idx == ColumnarSegment::npos ? out->bloom_fps
                                          : out->bloom_hits);
        }
      }
    }
    const SegmentBuilder* open = nullptr;
    int32_t begin = 0;
    if (idx != ColumnarSegment::npos) {
      begin = s->sealed->row_begin_at(idx);
      outcome.rows_count = s->sealed->row_begin_at(idx + 1) - begin;
    } else if (s->open != nullptr &&
               (idx = s->open->Find(key)) != SegmentBuilder::npos) {
      open = s->open.get();
      begin = open->row_begin(idx);
      outcome.rows_count = open->row_begin(idx + 1) - begin;
    }
    if (idx != ColumnarSegment::npos) {
      outcome.status = admitted ? ProbeStatus::kHit : ProbeStatus::kHitSkipped;
    }
    if (outcome.status == ProbeStatus::kHit && open == nullptr) {
      // Pin the snapshot once per run, on its first hit; the caller reads
      // rows in place (zero-copy) after the lock is released.
      if (sealed_slot < 0) {
        sealed_slot = static_cast<int32_t>(out->segments.size());
        out->segments.push_back(s->sealed);
      }
      outcome.seg_index = sealed_slot;
      outcome.rows_begin = begin;
    } else if (outcome.status == ProbeStatus::kHit) {
      // The open lanes grow under later Puts, so the rows are copied out
      // (typed, lane to lane) while the lock is held.
      if (copied_slot < 0) {
        copied_slot = static_cast<int32_t>(out->segments.size());
        out->segments.push_back(nullptr);  // filled in after the loop
        copied.resize(open->num_cols());
      }
      outcome.seg_index = copied_slot;
      outcome.rows_begin = copied_rows;
      copied_rows += outcome.rows_count;
      for (size_t c = 0; c < open->num_cols(); ++c) {
        copied[c].AppendRange(open->cols()[c], static_cast<size_t>(begin),
                              static_cast<size_t>(outcome.rows_count));
      }
    }
    out->outcomes.push_back(outcome);
  }
  if (copied_slot >= 0) {
    auto seg = std::make_shared<ColumnarSegment>();
    seg->cols.reserve(copied.size());
    for (const ColumnBuilder& c : copied) seg->cols.push_back(c.Finish());
    out->segments[static_cast<size_t>(copied_slot)] = std::move(seg);
  }
}

void MaterializedView::RecordAccesses(std::span<const int64_t> frames,
                                      uint64_t first_tick,
                                      int64_t query_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < frames.size(); ++i) {
    auto it = segments_.find(SegmentOf(frames[i]));
    if (it == segments_.end()) continue;
    it->second.info.last_access_tick = first_tick + i;
    it->second.info.last_access_query = query_id;
    if (query_id >= 0) last_access_query_ = query_id;
  }
}

double MaterializedView::SegmentBytesLocked(const Segment& s) const {
  if (build_options_.compress && s.read.load(std::memory_order_relaxed) &&
      s.open == nullptr && s.sealed != nullptr) {
    return static_cast<double>(s.sealed->encoded_bytes);
  }
  // Synthetic pre-codec estimate (§5.2): 16 B/key + 10 B/cell. A segment
  // is charged at this rate from a Put until it is next probed or sealed
  // by SealAllSegments; the lifecycle manager seals everything before
  // enforcing the budget, so eviction decisions see encoded bytes only.
  return 16.0 * static_cast<double>(s.info.keys) +
         static_cast<double>(s.info.rows) *
             static_cast<double>(value_schema_.num_fields()) * 10.0;
}

double MaterializedView::SizeBytes() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SealReadLocked();
  double bytes = 0;
  for (const auto& [id, s] : segments_) bytes += SegmentBytesLocked(s);
  return bytes;
}

double MaterializedView::HeapBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // A map node per segment plus what each part holds.
  double bytes = 0;
  for (const auto& [id, s] : segments_) {
    bytes += static_cast<double>(sizeof(Segment) + 32 +
                                 s.zone.cols.capacity() *
                                     sizeof(ZoneMapEntry));
    for (const ZoneMapEntry& z : s.zone.cols) {
      bytes += static_cast<double>(z.strings.size()) * 64;
    }
    if (s.sealed != nullptr) {
      bytes += static_cast<double>(s.sealed->HeapBytes());
    }
    if (s.open != nullptr) bytes += static_cast<double>(s.open->HeapBytes());
  }
  return bytes;
}

std::vector<SegmentStats> MaterializedView::Segments() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SealReadLocked();
  std::vector<SegmentStats> out;
  out.reserve(segments_.size());
  for (const auto& [id, s] : segments_) {
    SegmentStats st;
    st.segment_id = id;
    st.first_frame = id * segment_frames_;
    st.frame_end = (id + 1) * segment_frames_;
    st.bytes = SegmentBytesLocked(s);
    st.info = s.info;
    out.push_back(st);
  }
  return out;
}

EvictedSegment MaterializedView::EvictSegment(int64_t segment_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  EvictedSegment ev;
  ev.first_frame = segment_id * segment_frames_;
  ev.frame_end = (segment_id + 1) * segment_frames_;
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return ev;
  SealReadLocked();
  // Charge what the segment was accounted at (encoded bytes when sealed
  // under codecs, the synthetic formula otherwise).
  ev.bytes = SegmentBytesLocked(it->second);
  ev.keys = it->second.info.keys;
  ev.rows = it->second.info.rows;
  num_keys_ -= ev.keys;
  num_rows_ -= ev.rows;
  segments_.erase(it);
  return ev;
}

void MaterializedView::RestoreSegmentStamps(int64_t segment_id,
                                            const SegmentInfo& info) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return;
  // keys/rows stay as recomputed from the reloaded contents; only the
  // eviction-relevant stamps are restored.
  SegmentInfo& seg = it->second.info;
  seg.created_tick = info.created_tick;
  seg.last_access_tick = info.last_access_tick;
  seg.last_access_query = info.last_access_query;
  if (info.last_access_query > last_access_query_) {
    last_access_query_ = info.last_access_query;
  }
}

MaterializedView* ViewStore::GetOrCreate(const std::string& name,
                                         const Schema& value_schema) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    auto view = std::make_unique<MaterializedView>(name, value_schema);
    view->set_segment_frames(segment_frames_);
    view->set_build_options(build_options_);
    view->set_seal_totals(&seal_totals_);
    if (capture_appends_) view->set_capture_appends(true);
    it = views_.emplace(name, std::move(view)).first;
  }
  return it->second.get();
}

MaterializedView* ViewStore::Find(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

const MaterializedView* ViewStore::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

double ViewStore::TotalSizeBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  double total = 0;
  for (const auto& [name, view] : views_) total += view->SizeBytes();
  return total;
}

double ViewStore::HeapBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  double total = 0;
  for (const auto& [name, view] : views_) total += view->HeapBytes();
  return total;
}

}  // namespace eva::storage
