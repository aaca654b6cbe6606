#ifndef MMDB_OBS_AUDIT_H_
#define MMDB_OBS_AUDIT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "env/env.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"

namespace mmdb {

// Provenance journal for the durability path (DESIGN.md §18).
//
// Every checkpoint lifecycle event and every recovery decision is appended
// to `audit.log` as one self-checksummed JSON line:
//
//   {"seq":N,"t":<virtual seconds>,"event":"ckpt.begin",...,"crc":C}
//
// where C = crc32c over the line with the ",\"crc\":C" splice removed. The
// journal is an *audit artifact*, not a recovery input: the engine never
// reads it to make decisions, and journal write failures degrade to counters
// instead of failing the engine. It is written through the engine's Env so
// fault injection composes. Which kinds it records, their members (part of
// the format) and which lines it syncs after are the journaled rows of the
// event table in obs/trace.cc.
class AuditJournal {
 public:
  // Plain members, deliberately NOT registry instruments: the registry
  // snapshot must be bit-identical with auditing on. Surfaced only in the
  // dump's top-level "audit" member.
  struct Counters {
    uint64_t entries = 0;        // lines appended by this instance
    uint64_t bytes = 0;          // bytes appended by this instance
    uint64_t syncs = 0;
    uint64_t append_errors = 0;  // first one disables the journal
    uint64_t sync_errors = 0;
  };

  // Does not touch the filesystem; call Open() once before recording.
  AuditJournal(Env* env, std::string path);

  // `fresh` truncates. Otherwise the existing journal is read and
  // sequence numbering resumes after its valid prefix (complete lines whose
  // crc splice checks, numbered 1, 2, 3, ...; no JSON is parsed). A clean
  // journal is reopened for append as it is; one with a line torn by a
  // crash or an injected fault is cut in place to its valid prefix and
  // synced (Env::CutFile). Open failure counts an append error and leaves
  // the journal disabled (Append writes nothing); a failed cut leaves the
  // valid prefix intact.
  void Open(bool fresh);

  bool enabled() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  uint64_t next_seq() const { return next_seq_; }
  const Counters& counters() const { return counters_; }

  // Appends `event`'s line, then syncs if the event table says so. The
  // first failed append disables the journal for the rest of this
  // instance's life: a torn line must not be followed by more lines.
  // Events emit through EventSink::Emit, which calls this for journaled
  // kinds.
  void Append(const TraceEvent& event, const TraceDetail& detail);

 private:
  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_seq_ = 1;
  Counters counters_;
};

// --- reading and verification ---------------------------------------------

// One parsed journal line.
struct AuditEntry {
  uint64_t seq = 0;
  double t = 0.0;
  std::string event;
  JsonValue object;  // the whole line, including seq/t/event/crc
};

// Per-segment provenance captured by recovery: where the restored bytes came
// from (checkpoint id + ping-pong copy, whether the older copy had to be
// retried) and which log frames repainted them afterwards. Lives here, below
// the recovery layer, so the journal, the recovery manager and the engine
// dump all share one definition.
struct SegmentLineage {
  CheckpointId checkpoint_id = 0;  // 0: cold start, no checkpoint restored
  uint32_t copy = 0;
  bool retried = false;  // reloaded from the older copy after a failure
  uint64_t frames = 0;   // committed REDO records applied to this segment
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;
};

// Emits {"segments":N,"checkpoint":[...],...,"last_lsn":[...]}.
// Shared by the journal's recovery.lineage event and the engine dump's
// audit.lineage member so the two compare byte-for-byte after a round trip.
void WriteLineageJson(const std::vector<SegmentLineage>& lineage,
                      JsonWriter* w);

// Splits `text` into entries, checking per-line CRCs and that sequence
// numbers run 1,2,3,... without gaps (the reopen's line check), then
// parsing each line's JSON. An incomplete final line (no trailing newline —
// a torn append) is ignored; a complete line that fails its CRC or does not
// parse is CORRUPTION.
StatusOr<std::vector<AuditEntry>> ParseAuditJournal(std::string_view text);

// Structural verification: every event's required fields are present and
// the event stream obeys the lifecycle grammar — ckpt.flush/end/abort only
// inside an open ckpt.begin chain with a matching id, abort-then-begin
// retries reuse the id, recovery.* events only inside an open
// recovery.begin chain, no checkpoint events inside recovery, and a
// recovery.begin implicitly closes a checkpoint chain severed by the crash.
Status VerifyAuditStructure(const std::vector<AuditEntry>& entries);

// Cross-checks the journal's claims against the engine's own account of
// what happened (`dump` = parsed Engine::DumpMetricsJson()): the last
// recovery chain's lineage must match dump.audit.lineage exactly, its
// recovery.end must match dump.recovery's checkpoint/copy/fallback/replay
// counters, the lineage's applied-frame total must equal the independently
// counted updates_applied, and the journal's next sequence number must
// match dump.audit.journal.next_seq.
Status VerifyAuditAgainstDump(const std::vector<AuditEntry>& entries,
                              const JsonValue& dump);

// One-call verification used by `mmdb_audit verify` and the test suites:
// parse + structure + (when `dump` is non-null) dump cross-check. A journal
// that recorded append errors (injected faults landed on the journal
// itself) is reported OK-but-degraded: its tail cannot be trusted, which
// the dump's own append_errors counter already discloses.
Status VerifyAuditJournal(std::string_view journal_text,
                          const JsonValue* dump);

// Answer to "explain segment S": provenance of the most recent recovery,
// plus the matching checkpoint chain from earlier in the same journal.
struct SegmentProvenance {
  SegmentId segment = 0;
  SegmentLineage lineage;
  // Filled when the journal also contains the restored checkpoint's chain.
  bool checkpoint_in_journal = false;
  double checkpoint_begin_t = 0.0;
  double checkpoint_end_t = 0.0;
  std::string checkpoint_algorithm;
  uint64_t checkpoint_aborted_attempts = 0;  // aborts of the same id before
  double recovered_t = 0.0;                  // recovery.begin time
};

// NOT_FOUND when the journal holds no recovery.lineage event;
// OUT_OF_RANGE when `segment` exceeds the recorded lineage.
StatusOr<SegmentProvenance> ExplainSegment(
    const std::vector<AuditEntry>& entries, SegmentId segment);

}  // namespace mmdb

#endif  // MMDB_OBS_AUDIT_H_
