#include "exec/chunk.h"

namespace eva::exec {

Row Chunk::RowAt(size_t r) const {
  Row row;
  row.reserve(cols_.size());
  for (const ColumnBuilder& c : cols_) row.push_back(c.At(r));
  return row;
}

void Chunk::AppendRow(const Row& row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (c < row.size()) {
      cols_[c].Append(row[c]);
    } else {
      cols_[c].AppendNull();
    }
  }
  ++rows_;
}

void Chunk::Filter(const std::vector<uint8_t>& keep) {
  size_t kept = 0;
  for (size_t r = 0; r < rows_; ++r) kept += keep[r] != 0;
  if (kept == rows_) return;
  for (ColumnBuilder& c : cols_) c.Filter(keep.data());
  rows_ = kept;
  view_hits_ = {};
}

void Chunk::AppendTo(Batch* out) const {
  std::vector<Row>& rows = out->mutable_rows();
  const size_t first = rows.size();
  rows.resize(first + rows_);
  for (size_t r = 0; r < rows_; ++r) rows[first + r].reserve(cols_.size());
  for (const ColumnBuilder& c : cols_) {
    for (size_t r = 0; r < rows_; ++r) rows[first + r].push_back(c.At(r));
  }
}

Chunk Chunk::FromBatch(const Batch& batch) {
  Chunk chunk(batch.schema());
  for (const Row& row : batch.rows()) chunk.AppendRow(row);
  return chunk;
}

}  // namespace eva::exec
