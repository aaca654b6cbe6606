#ifndef MMDB_BACKUP_BACKUP_STORE_H_
#define MMDB_BACKUP_BACKUP_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "env/env.h"
#include "obs/metrics_registry.h"
#include "sim/cost_model.h"
#include "sim/disk_model.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"

namespace mmdb {

// Metadata naming the last *complete* checkpoint. Persisted atomically
// (write-temp + rename) after the end-checkpoint log record is durable, so
// at every instant recovery can find a complete backup — the ping-pong
// guarantee of Section 2.6.
struct CheckpointMeta {
  CheckpointId checkpoint_id = 0;
  uint32_t copy = 0;              // which ping-pong copy this checkpoint wrote
  uint64_t log_offset = 0;        // byte offset of the begin-checkpoint frame
  Lsn begin_lsn = kInvalidLsn;    // LSN of the begin-checkpoint record
  Timestamp tau = 0;              // tau(CH) for COU checkpoints

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view data, CheckpointMeta* out);

  friend bool operator==(const CheckpointMeta&, const CheckpointMeta&) =
      default;
};

// The secondary (disk-resident) database: two complete copies of the
// database image, updated alternately by successive checkpoints. Each
// segment slot carries a CRC so that torn writes from a crash mid-checkpoint
// are detectable.
//
// Timing: segment reads/writes are routed through the shared backup-disk
// array model (N_bdisks devices); the returned completion times drive the
// checkpointer's pacing. The bytes themselves move through Env immediately;
// Crash(now) corrupts the slots of writes whose modeled completion had not
// been reached, which is exactly the state a real machine could expose.
class BackupStore {
 public:
  // `disks` must outlive the store and is shared with recovery.
  BackupStore(Env* env, std::string dir, const SystemParams& params,
              DiskArrayModel* disks);

  BackupStore(const BackupStore&) = delete;
  BackupStore& operator=(const BackupStore&) = delete;

  // Creates/opens both copy files, preallocating full database extents.
  // An existing copy whose header does not match this geometry is
  // rejected before anything is written to it.
  Status Open();

  // Which copy checkpoint `id` must write (checkpoints alternate).
  static uint32_t CopyFor(CheckpointId id) { return id % 2; }

  // Schedules the write of one segment image into `copy` at time `now`;
  // returns the modeled completion time. `data` must be segment_bytes long.
  StatusOr<double> WriteSegment(uint32_t copy, SegmentId segment,
                                std::string_view data, double now);

  // Reads one segment image straight into `dst` (segment_bytes long) and
  // verifies its checksum there. On a CORRUPTION or IO_ERROR result `dst`
  // holds unspecified bytes.
  Status ReadSegmentInto(uint32_t copy, SegmentId segment,
                         std::span<char> dst) const;
  // ReadSegmentInto a string resized to the segment.
  Status ReadSegment(uint32_t copy, SegmentId segment, std::string* out) const;

  // Atomically publishes `meta` as the latest complete checkpoint.
  Status CommitCheckpoint(const CheckpointMeta& meta);

  // Latest published metadata; NOT_FOUND before the first checkpoint
  // completes.
  StatusOr<CheckpointMeta> ReadMeta() const;

  // Simulates a crash at `now`: in-flight segment writes tear (their slots
  // are scribbled and fail checksum verification afterwards).
  Status Crash(double now);

  uint64_t segments_written() const { return segments_written_; }

  // Optional metrics sink (may be null).
  void set_obs(MetricsRegistry* registry);

  // The shared backup-disk array model (for pacing and recovery timing).
  DiskArrayModel* disks() const { return disks_; }

  // --- file-format introspection (used by the inspection tools) ----------
  // Reads the geometry stored in a copy file's header.
  static StatusOr<DatabaseParams> ReadGeometry(Env* env,
                                               const std::string& copy_path);
  // Byte offsets within a copy file for the given geometry.
  static uint64_t SlotOffsetFor(const DatabaseParams& db, SegmentId segment);
  static uint64_t CrcOffsetFor(const DatabaseParams& db, SegmentId segment);

  const std::string& dir() const { return dir_; }
  std::string CopyPath(uint32_t copy) const;
  std::string MetaPath() const;

 private:
  struct InFlight {
    uint32_t copy;
    SegmentId segment;
    double done_time;
  };

  uint64_t SlotOffset(SegmentId segment) const;
  uint64_t CrcOffset(SegmentId segment) const;

  Env* env_;
  std::string dir_;
  SystemParams params_;
  DiskArrayModel* disks_;
  std::unique_ptr<RandomWriteFile> copies_[2];
  std::vector<InFlight> in_flight_;
  uint64_t segments_written_ = 0;

  Counter* m_segment_writes_ = nullptr;
  Counter* m_segment_write_bytes_ = nullptr;
  Counter* m_segment_reads_ = nullptr;
  Counter* m_read_errors_ = nullptr;
  Counter* m_meta_commits_ = nullptr;
  Timer* m_write_service_seconds_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_BACKUP_BACKUP_STORE_H_
