#ifndef EVA_EXEC_CHUNK_H_
#define EVA_EXEC_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/row.h"
#include "storage/column_segment.h"

namespace eva::exec {

using storage::ColumnBuilder;

/// ViewJoin's verdict on a chunk's rows against the view it probed
/// (docs/STORAGE.md): hit[r] != 0 when row r was answered from `view`, 0
/// when the key was absent there and CondApply computes the row. STORE over
/// `view` skips the hits and appends the rest without looking them up.
/// An empty `view` is no verdict: STORE looks every key up.
struct ViewHits {
  std::string view;
  std::vector<uint8_t> hit;  // one per row
};

/// The unit operators exchange (docs/RUNTIME.md): a schema plus one typed
/// column per field, every column holding num_rows() cells. The columns
/// are storage::ColumnBuilder lanes — the plain typed lane the view store
/// builds its segments from — so a column falls back to Value cells only
/// when its cells mix types. Rows exist only at the edges: ExecutePlan
/// turns the root chunk into the result Batch, and the scalar fallbacks
/// (filter interpreter, projection expressions, aggregation) read one row
/// at a time through RowAt.
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(Schema schema)
      : schema_(std::move(schema)), cols_(schema_.num_fields()) {}
  /// Adopts `cols` (one per schema field, `rows` cells each).
  Chunk(Schema schema, std::vector<ColumnBuilder> cols, size_t rows)
      : schema_(std::move(schema)), cols_(std::move(cols)), rows_(rows) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t num_cols() const { return cols_.size(); }
  const ColumnBuilder& col(size_t c) const { return cols_[c]; }
  std::vector<ColumnBuilder>& cols() { return cols_; }
  const std::vector<ColumnBuilder>& cols() const { return cols_; }

  const ViewHits& view_hits() const { return view_hits_; }
  void set_view_hits(ViewHits hits) { view_hits_ = std::move(hits); }

  /// Row r as Values.
  Row RowAt(size_t r) const;
  /// Appends one row (cells past the end of `row` are NULL).
  void AppendRow(const Row& row);
  /// Keeps the rows r with keep[r] != 0, in order (dropping a row drops
  /// the view verdict).
  void Filter(const std::vector<uint8_t>& keep);
  /// Appends every row, as Values, to `out`.
  void AppendTo(Batch* out) const;
  static Chunk FromBatch(const Batch& batch);

 private:
  Schema schema_;
  std::vector<ColumnBuilder> cols_;
  size_t rows_ = 0;
  ViewHits view_hits_;
};

}  // namespace eva::exec

#endif  // EVA_EXEC_CHUNK_H_
