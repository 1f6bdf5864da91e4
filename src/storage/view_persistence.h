#ifndef EVA_STORAGE_VIEW_PERSISTENCE_H_
#define EVA_STORAGE_VIEW_PERSISTENCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fault/fault_fs.h"
#include "storage/view_store.h"
#include "udf/udf_manager.h"

namespace eva::storage {

/// Crash-safe persistence for materialized UDF views (the paper stores
/// views on disk next to the Parquet-encoded video, §4.2/§5.2)
/// (docs/RELIABILITY.md).
///
/// A save directory holds one file per view plus the lifecycle state,
/// both named with a generation number, and a MANIFEST that commits the
/// generation atomically:
///
///   <name>.g<G>.evaseg         view data: every sealed segment's keys and
///                              column lanes, in the binary column codec
///   lifecycle.g<G>.evastate    segment stamps + coverage (text)
///   MANIFEST                   generation + per-file size and CRC32
///
/// Every file is written as `<file>.tmp`, fsynced, then renamed; the
/// MANIFEST is written last, the same way. An interrupted save therefore
/// leaves the previous generation fully loadable — the new generation's
/// files are ignored (and quarantined) because the MANIFEST never came to
/// claim them. Committing the MANIFEST also garbage-collects every managed
/// file it does not list, which is what removes stale view files of
/// dropped or fully-evicted views and the previous generation.
///
/// The column codec (a `.evaseg` segment block: key index + one lane per
/// value field) is the only form view rows take outside memory: the WAL's
/// segment_append records carry the same block with plain lanes
/// (WriteKeyedRows / ReadKeyedRows, src/wal/).

/// One file set aside during recovery (renamed to `<file>.quarantined`).
struct QuarantinedFile {
  std::string file;      // basename within the save directory
  std::string view_key;  // logical view name, "" when unknown
  std::string reason;
};

/// What LoadSession found and repaired. Recovery is never fatal: corrupt
/// or unmanifested state is quarantined and its symbolic coverage
/// retracted, so a reload can only underclaim (recompute), never overclaim
/// (§4.1 soundness).
struct RecoveryReport {
  int64_t generation = 0;  // manifest generation loaded; 0 = none
  bool manifest_corrupt = false;
  std::vector<QuarantinedFile> quarantined;
  std::vector<std::string> retracted;  // coverage keys retracted
  int64_t tmp_removed = 0;

  bool clean() const { return !manifest_corrupt && quarantined.empty(); }
  /// One-line summary for the shell's .load output.
  std::string Summary() const;
};

/// Saves views + lifecycle state as one new generation with a single
/// MANIFEST commit — the engine's save path. All filesystem traffic goes
/// through `fs` (pass nullptr for a plain pass-through shim).
Status SaveSession(const ViewStore& store, const udf::UdfManager& manager,
                   const std::string& dir, fault::FaultFs* fs = nullptr);

/// Loads a save directory with full recovery: verifies the MANIFEST and
/// every file's size/CRC32, quarantines what fails (or was never
/// manifested), removes leftover `.tmp` files, and retracts the symbolic
/// coverage of every quarantined view so reuse never overclaims. A
/// directory without a MANIFEST loads nothing: its managed files are
/// quarantined as "not in manifest". Returns NotFound only when `dir`
/// itself is missing.
Result<RecoveryReport> LoadSession(const std::string& dir, ViewStore* store,
                                   udf::UdfManager* manager,
                                   fault::FaultFs* fs = nullptr);

/// Generation number the directory's MANIFEST currently commits: 0 when no
/// MANIFEST exists, an error only on a corrupt MANIFEST or a simulated
/// crash. The WAL names its log file after this generation (src/wal/) so a
/// checkpoint and its log tail stay paired.
Result<int64_t> ManifestGeneration(const std::string& dir,
                                   fault::FaultFs* fs = nullptr);

/// The two halves of LoadSession, exposed for the recovery tests. `fs` may
/// be nullptr; `report` accumulates.
Status LoadViewFiles(const std::string& dir, ViewStore* store,
                     fault::FaultFs* fs, RecoveryReport* report);
Status LoadLifecycleStateEx(const std::string& dir, ViewStore* store,
                            udf::UdfManager* manager, fault::FaultFs* fs,
                            RecoveryReport* report);

/// Binary `.evaseg` body for one view: every sealed segment's keys and
/// codec-encoded columns (seals open rows first; runs between queries).
/// Exposed for the codec fuzz/round-trip tests.
std::string SerializeViewSegments(const std::string& name,
                                  const MaterializedView& view);

/// Parses a `.evaseg` body, validates it exhaustively (lane sizes, dict
/// code ranges, run offsets, key ordering), and installs it into `store`:
/// each segment's decoded columns are adopted as a sealed segment, with no
/// row round trip (MaterializedView::AdoptSegment; merging, existing keys
/// win). A body that fails anywhere installs nothing — corrupt codec files
/// underclaim, never crash and never surface wrong rows
/// (reader_fuzz_test).
Status ParseSegmentBody(const std::string& content, const std::string& file,
                        ViewStore* store);

/// The WAL segment_append body: one `.evaseg` segment block over `rows`
/// (keys in the given order, plain lanes written by the same column
/// writer). ReadKeyedRows validates the block as ParseSegmentBody does,
/// but for key order (`num_cols` lanes, each as long as the row total,
/// codes and counts in range) and returns false on any malformed byte,
/// leaving `rows` unusable.
void WriteKeyedRows(ByteWriter* w, const MaterializedView::KeyedRows& rows);
bool ReadKeyedRows(ByteReader* r, size_t num_cols,
                   MaterializedView::KeyedRows* rows);

}  // namespace eva::storage

#endif  // EVA_STORAGE_VIEW_PERSISTENCE_H_
