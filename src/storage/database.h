#ifndef MMDB_STORAGE_DATABASE_H_
#define MMDB_STORAGE_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "sim/cost_model.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// The primary, memory-resident copy of the database: a flat array of
// fixed-size records grouped into segments (Section 2.4). This is plain
// volatile storage — crash semantics, locking and checkpoint state live in
// higher layers (Engine, SegmentTable).
//
// Layout: record r occupies bytes [r*record_bytes, (r+1)*record_bytes);
// segment s spans records [s*records_per_segment, (s+1)*records_per_segment).
//
// Memory: one anonymous mapping, advised MADV_HUGEPAGE and prefaulted with
// MADV_POPULATE_WRITE, so construction pays for the zeroed pages once, on
// 2 MiB pages where the kernel has them, and no later access faults (an
// instant restart materializes nearly every segment inside the calls that
// stall on it, where lazy faults measurably cut throughput; DESIGN.md §2).
// Where the kernel rejects the populate call, a zero-fill prefaults
// instead. A PROT_NONE guard page follows the last byte, so an overrun of
// the primary faults in every build.
class Database {
 public:
  explicit Database(const DatabaseParams& params);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseParams& params() const { return params_; }
  uint64_t num_records() const { return params_.num_records(); }
  uint64_t num_segments() const { return params_.num_segments(); }
  size_t record_bytes() const { return record_bytes_; }
  size_t segment_bytes() const { return segment_bytes_; }

  SegmentId SegmentOf(RecordId record) const {
    return record / params_.records_per_segment();
  }

  // Raw access. Views stay valid for the database's lifetime (it is
  // fixed-size).
  std::string_view ReadRecord(RecordId record) const;
  void WriteRecord(RecordId record, std::string_view data);

  std::string_view ReadSegment(SegmentId segment) const;
  // A whole segment's bytes, writable in place: restores read backup
  // images straight into it.
  std::span<char> MutableSegment(SegmentId segment);

  // Zeroes all contents (models the loss of volatile memory at a crash
  // followed by reallocation at restart).
  void Clear();

  // Checksum of the full database image; used by tests to compare states.
  uint32_t Checksum() const;

  // Direct byte access for bulk operations (backup writes, recovery reads).
  const char* data() const { return bytes_; }
  char* mutable_data() { return bytes_; }
  size_t size_bytes() const { return size_bytes_; }

 private:
  DatabaseParams params_;
  size_t record_bytes_;
  size_t segment_bytes_;
  size_t size_bytes_;
  char* mapping_ = nullptr;  // start of the mapping, guard page included
  size_t mapping_bytes_ = 0;
  char* bytes_ = nullptr;  // the database; its last byte abuts the guard
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_DATABASE_H_
