#ifndef MMDB_TOOLS_INSPECT_H_
#define MMDB_TOOLS_INSPECT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "env/env.h"
#include "sim/cost_model.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"

namespace mmdb {

// Offline inspection of an engine's on-disk state, backing the
// `mmdb_log_dump` and `mmdb_backup_inspect` command-line tools (and usable
// programmatically, e.g. for monitoring). Everything here is read-only.

// What a pass over a log file found.
struct LogSummary {
  uint64_t base_offset = 0;
  uint64_t valid_bytes = 0;  // logical end of the well-formed prefix
  bool torn_tail = false;

  uint64_t records = 0;
  uint64_t updates = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t begin_markers = 0;
  uint64_t end_markers = 0;
  uint64_t distinct_txns = 0;

  // Checkpoints seen, oldest first; `complete` means the end marker was
  // found too.
  struct CheckpointSpan {
    CheckpointId id;
    uint64_t begin_offset;
    bool complete;
  };
  std::vector<CheckpointSpan> checkpoints;

  std::string ToString() const;
};

// Scans the whole log (from its base offset) and summarizes it.
StatusOr<LogSummary> SummarizeLog(Env* env, const std::string& log_path);

// Prints one line per record to `out`, starting at `from_offset`
// (0 = the file's base). Returns the number of records printed.
StatusOr<uint64_t> DumpLog(Env* env, const std::string& log_path,
                           uint64_t from_offset, std::FILE* out);

// JSON form of DumpLog, appended to `*out` as a single document:
//   {"base_offset":N,"valid_bytes":N,"torn_tail":b,
//    "records":[{"offset":N,"record":{...}},...]}
// The per-record objects come from LogRecord::AppendJsonTo — the same
// formatter the trace layer's log events reference — so offline dumps and
// live traces name fields identically. Returns the record count.
[[nodiscard]] StatusOr<uint64_t> DumpLogJson(Env* env,
                                             const std::string& log_path,
                                             uint64_t from_offset,
                                             std::string* out);

// Verification result for one ping-pong copy.
struct CopySummary {
  bool present = false;
  uint64_t valid_segments = 0;
  uint64_t corrupt_segments = 0;
  std::vector<SegmentId> corrupt_examples;  // first few failing segments
};

// What an inspection of a backup directory found.
struct BackupSummary {
  DatabaseParams geometry;
  bool has_meta = false;
  CheckpointMeta meta;
  CopySummary copies[2];

  std::string ToString() const;
};

// Reads the directory's geometry from the copy headers, verifies every
// segment checksum in both copies, and decodes the checkpoint metadata.
// Corrupt segments are counted, not fatal (a torn in-flight checkpoint
// legitimately leaves some).
StatusOr<BackupSummary> InspectBackup(Env* env, const std::string& dir);

}  // namespace mmdb

#endif  // MMDB_TOOLS_INSPECT_H_
