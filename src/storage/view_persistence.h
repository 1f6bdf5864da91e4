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
/// views on disk next to the Parquet-encoded video, §4.2/§5.2), format v2
/// (docs/RELIABILITY.md).
///
/// A save directory holds one file per view plus the lifecycle state,
/// both named with a generation number, and a MANIFEST that commits the
/// generation atomically:
///
///   <name>.g<G>.evaview        view data, text (same line format as v1)
///   <name>.g<G>.evaseg         view data, binary codec form (compressed
///                              sealed segments; written instead of the
///                              .evaview file when SaveOptions requests it)
///   lifecycle.g<G>.evastate    segment stamps + coverage (same as v1)
///   MANIFEST                   generation + per-file size and CRC32
///
/// Every file is written as `<file>.tmp`, fsynced, then renamed; the
/// MANIFEST is written last, the same way. An interrupted save therefore
/// leaves the previous generation fully loadable — the new generation's
/// files are ignored (and quarantined) because the MANIFEST never came to
/// claim them. Committing the MANIFEST also garbage-collects every managed
/// file it does not list, which is what removes stale `.evaview` files of
/// dropped or fully-evicted views (they used to silently resurrect on
/// reload) and the previous generation.
///
/// View file line format (unchanged from v1):
///
///   eva-view 1
///   name <view name>
///   schema <n> <col> <type> ...
///   key <frame> <obj> <num_rows>
///   row <cell> <cell> ...
///
/// Cells are type-prefixed (`N`, `B:`, `I:`, `D:`, `S:`); string cells are
/// percent-escaped so whitespace survives the round trip.

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
  bool legacy = false;     // pre-v2 directory (no MANIFEST)
  bool manifest_corrupt = false;
  std::vector<QuarantinedFile> quarantined;
  std::vector<std::string> retracted;  // coverage keys retracted
  int64_t tmp_removed = 0;

  bool clean() const { return !manifest_corrupt && quarantined.empty(); }
  /// One-line summary for the shell's .load output.
  std::string Summary() const;
};

/// Save-path configuration. `compressed_segments` writes each view as a
/// binary `.evaseg` codec file (sealed-segment encodings + bit-packed key
/// index, docs/STORAGE.md) instead of the text `.evaview` form. Loading
/// accepts either — a dir saved without compression still loads into a
/// compression-enabled engine and vice versa.
struct SaveOptions {
  bool compressed_segments = false;
};

/// Saves views + lifecycle state as one new generation with a single
/// MANIFEST commit — the engine's save path. All filesystem traffic goes
/// through `fs` (pass nullptr for a plain pass-through shim).
Status SaveSession(const ViewStore& store, const udf::UdfManager& manager,
                   const std::string& dir, fault::FaultFs* fs = nullptr,
                   const SaveOptions& options = {});

/// Loads a save directory with full recovery: verifies the MANIFEST and
/// every file's size/CRC32, quarantines what fails (or was never
/// manifested), removes leftover `.tmp` files, and retracts the symbolic
/// coverage of every quarantined view so reuse never overclaims. A
/// directory without a MANIFEST loads best-effort as legacy v1. Returns
/// NotFound only when `dir` itself is missing.
Result<RecoveryReport> LoadSession(const std::string& dir, ViewStore* store,
                                   udf::UdfManager* manager,
                                   fault::FaultFs* fs = nullptr);

/// Generation number the directory's MANIFEST currently commits: 0 when no
/// MANIFEST exists, an error only on a corrupt MANIFEST or a simulated
/// crash. The WAL names its log file after this generation (src/wal/) so a
/// checkpoint and its log tail stay paired.
Result<int64_t> ManifestGeneration(const std::string& dir,
                                   fault::FaultFs* fs = nullptr);

/// Views-only save and load (tests): SaveViewStore commits a manifest
/// without lifecycle state; LoadViewStore is LoadViewStoreEx without a
/// report.
Status SaveViewStore(const ViewStore& store, const std::string& dir);
Status LoadViewStore(const std::string& dir, ViewStore* store);

/// The two halves of LoadSession, exposed for the recovery tests. `fs` may
/// be nullptr; `report` accumulates.
Status LoadViewStoreEx(const std::string& dir, ViewStore* store,
                       fault::FaultFs* fs, RecoveryReport* report);
Status LoadLifecycleStateEx(const std::string& dir, ViewStore* store,
                            udf::UdfManager* manager, fault::FaultFs* fs,
                            RecoveryReport* report);

/// Cell encoding helpers (exposed for tests). DecodeValue returns a
/// Status error on malformed input — it never throws, even on overflowing
/// numerals or bad escapes (reader_fuzz_test).
std::string EncodeValue(const Value& v);
Result<Value> DecodeValue(const std::string& text);

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

}  // namespace eva::storage

#endif  // EVA_STORAGE_VIEW_PERSISTENCE_H_
