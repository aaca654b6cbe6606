#ifndef MMDB_WAL_LOG_MANAGER_H_
#define MMDB_WAL_LOG_MANAGER_H_

#include <deque>
#include <memory>
#include <string>

#include "env/env.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "sim/disk_model.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace mmdb {

// The REDO log: one append-only file on the (simulated) log disks plus an
// in-memory tail buffer.
//
// Durability model. Append() places a record in the volatile tail and
// assigns its LSN. Flush(now) hands the tail to the log devices, which
// serve flushes as a serial group-commit stream: batches start at least
// `min_flush_spacing` apart and never overlap, and a flush requested while
// the previous batch is still waiting to start simply merges into it
// (exactly how group commit coalesces). Bytes become durable at the
// modeled batch completion time. DurableLsn(now)
// answers the write-ahead tests used by the FUZZYCOPY/2C*/COU* algorithms:
// "have the log records (and commit record) of every update reflected in
// this segment reached the disk yet?"
//
// With `stable_log_tail` (Section 4's stable-RAM scenario) every record is
// durable the moment it is appended, and a crash preserves the tail; this
// is what makes the FASTFUZZY algorithm legal.
//
// Crash semantics: Crash(now) discards whatever would not have survived —
// unflushed tail bytes and batches whose modeled completion lies after
// `now` — and cuts the on-Env file in place to its surviving prefix, so
// recovery reads precisely what a real machine would have found.
class LogManager {
 public:
  // `min_flush_spacing` models the group-commit cadence: successive
  // flushes START at least this many seconds apart (a flush requested
  // early is submitted late), bounding the seek load tiny flushes would
  // otherwise put on the log disks. 0 disables the throttle.
  LogManager(Env* env, std::string path, const SystemParams& params,
             CpuMeter* meter, bool stable_log_tail,
             double min_flush_spacing = 0.0);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Creates (or truncates) the log file. Must be called before Append.
  Status Open();

  // Reopens the existing file after recovery, keeping its well-formed
  // prefix through logical offset `valid_bytes` (base-inclusive; anything
  // beyond it is cut off in place) and continuing the LSN sequence from
  // `next_lsn`. Reads no byte of the file; the prefix is synced either way.
  // `base` and `valid_bytes` are what LogReader::Open read from the file.
  Status OpenExisting(uint64_t base, uint64_t valid_bytes, Lsn next_lsn);

  // Drops all frames before logical offset `cut` (the begin marker of the
  // previous complete checkpoint, which recovery never scans past). The file is rewritten with its base offset raised, so
  // previously published offsets remain valid. Everything before `cut`
  // must already be durable. Returns the number of bytes reclaimed.
  StatusOr<uint64_t> TruncateBefore(uint64_t cut);

  // Logical offset of the oldest byte still retained.
  uint64_t BaseOffset() const { return base_offset_; }

  // Appends a record to the tail; assigns and returns its LSN (also
  // stored into record->lsn). Charges log data movement to the CPU meter.
  // `now` is only for the trace timeline (callers without a clock may
  // omit it).
  Lsn Append(LogRecord* record, double now = 0.0);

  // Starts writing all buffered tail bytes to the log disks at time
  // `now`. Returns immediately; the bytes count as durable at the
  // returned completion time. A no-op returning `now` if the tail is
  // empty.
  //
  // On a device error the tail is retained in full (no record is lost
  // from memory and no durability promise is made), the file is
  // remembered as possibly holding trailing garbage, and the error is
  // returned so commit callers see that durability did not advance. The
  // next Flush first cuts the file back to its known-good prefix, then
  // retries the whole batch.
  StatusOr<double> Flush(double now);

  // Highest LSN durable at time `now` (kInvalidLsn if none).
  Lsn DurableLsn(double now) const;

  // Earliest time at which `lsn` is durable: a past time if already
  // durable, the pending flush's completion if in flight, or +infinity if
  // the record is still sitting in an unflushed tail.
  double WhenDurable(Lsn lsn, double now) const;

  // LSN the next Append will receive.
  Lsn NextLsn() const { return next_lsn_; }
  // LSN of the most recently appended record.
  Lsn LastLsn() const { return next_lsn_ - 1; }

  // Logical byte offset at which the *next* appended record's frame will
  // start (file bytes + pending tail bytes). Recorded in checkpoint
  // metadata so recovery can seek straight to a begin-checkpoint marker.
  uint64_t NextOffset() const { return appended_bytes_; }

  uint64_t TailBytes() const { return tail_.size(); }

  // Simulates losing volatile state at time `now`; truncates the on-disk
  // file to its durable prefix. Under stable_log_tail the tail survives
  // and is persisted instead. The LogManager is unusable afterwards
  // except for Crash-time queries; recovery reads the file through
  // LogReader::Open.
  Status Crash(double now);

  // Total words ever appended (for bandwidth accounting).
  uint64_t AppendedWords() const { return appended_bytes_ / kWordBytes; }

  // Number of physical flush batches issued.
  uint64_t FlushCount() const { return flush_count_; }

  bool stable_log_tail() const { return stable_log_tail_; }

  // Optional observability sinks (either may be null). Instrument pointers
  // are cached here once; the hot paths then pay one atomic add per event.
  void set_obs(MetricsRegistry* registry, Tracer* tracer);

 private:
  // Rewrites the log file atomically (temp file + rename), so a fault
  // mid-rewrite leaves the original — which holds every durable byte —
  // untouched. Only TruncateBefore needs it: dropping a prefix writes a new
  // header. Every tail is cut in place (Env::CutFile).
  Status PersistRewrite(const std::string& contents);
  // Cuts trailing garbage left by a failed append back to the flushed
  // prefix in place and reopens the file for appending.
  Status Repair();

  struct PendingFlush {
    Lsn last_lsn;         // highest LSN contained in this flush
    uint64_t bytes_upto;  // bytes durable once this flush lands
    uint64_t words;       // payload size
    double start_time;    // when the devices begin writing it
    double done_time;     // modeled completion time
  };

  // Service time of one flush of `words` striped across the log disks.
  double FlushSeconds(uint64_t words) const {
    return params_.disk.seek_seconds +
           params_.disk.transfer_seconds_per_word *
               static_cast<double>(words) / params_.disk.num_log_disks;
  }

  Env* env_;
  std::string path_;
  SystemParams params_;
  CpuMeter* meter_;
  bool stable_log_tail_;

  std::unique_ptr<WritableFile> file_;
  std::string tail_;  // encoded frames not yet handed to a flush
  // A failed append may have left a partial frame in the file; set until
  // Repair() restores the known-good prefix.
  bool damaged_ = false;

  Lsn next_lsn_ = 1;
  Lsn tail_last_lsn_ = kInvalidLsn;
  uint64_t written_bytes_ = 0;   // bytes handed to the file (flushes issued)
  uint64_t appended_bytes_ = 0;  // total framed bytes: written + tail
  std::deque<PendingFlush> pending_;
  Lsn flushed_lsn_ = kInvalidLsn;  // highest LSN handed to the file
  uint64_t base_offset_ = 0;       // logical offset of the file's first frame
  uint64_t flush_count_ = 0;
  double min_flush_spacing_;
  double last_flush_start_ = -1e300;
  // LSN / byte prefix whose durability predates this LogManager instance
  // (the recovered prefix after OpenExisting).
  Lsn durable_floor_ = kInvalidLsn;
  uint64_t durable_bytes_floor_ = 0;

  Tracer* tracer_ = nullptr;
  Counter* m_appends_ = nullptr;
  Counter* m_append_bytes_ = nullptr;
  Counter* m_flush_batches_ = nullptr;
  Counter* m_flush_bytes_ = nullptr;
  Counter* m_flush_errors_ = nullptr;
  Counter* m_group_merges_ = nullptr;
  Timer* m_flush_seconds_ = nullptr;
};

// Framing shared with LogReader: [u32 len][payload][u32 masked-crc][u32 len].
inline constexpr size_t kLogFrameOverhead = 12;

// Log files begin with a fixed header carrying the *base offset*: the
// logical byte offset of the first frame in the file. Truncating the log
// prefix (TruncateBefore) raises the base instead of renumbering, so
// offsets stored in checkpoint metadata stay valid forever.
// Layout: [u32 magic][u32 version][u64 base_offset].
inline constexpr uint32_t kLogFileMagic = 0x4d4d4c47;  // "MMLG"
inline constexpr uint32_t kLogFileVersion = 1;
inline constexpr size_t kLogFileHeaderBytes = 16;

// Appends one framed record to *dst.
void EncodeLogFrame(const LogRecord& record, std::string* dst);

// The 16-byte log-file header.
std::string EncodeLogFileHeader(uint64_t base_offset);

}  // namespace mmdb

#endif  // MMDB_WAL_LOG_MANAGER_H_
