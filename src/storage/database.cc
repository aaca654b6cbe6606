#include "storage/database.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "util/crc32c.h"

namespace mmdb {

Database::Database(const DatabaseParams& params)
    : params_(params),
      record_bytes_(params.record_bytes()),
      segment_bytes_(params.segment_bytes()),
      size_bytes_(params.db_words * kWordBytes) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t body = (size_bytes_ + page - 1) / page * page;
  mapping_bytes_ = body + page;
  void* p = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  mapping_ = static_cast<char*>(p);
  if (::mprotect(mapping_ + body, page, PROT_NONE) != 0) {
    ::munmap(mapping_, mapping_bytes_);
    throw std::bad_alloc();
  }
  // End the database at the guard page, so even a one-byte overrun of a
  // size that is not a page multiple faults.
  bytes_ = mapping_ + (body - size_bytes_);
  // Advice only: without it (THP in "madvise" mode) the primary would
  // live on 4 KiB pages; a refusal leaves it there.
  (void)::madvise(mapping_, body, MADV_HUGEPAGE);
#ifdef MADV_POPULATE_WRITE
  if (::madvise(mapping_, body, MADV_POPULATE_WRITE) == 0) return;
#endif
  std::memset(bytes_, 0, size_bytes_);  // prefault by zero-fill instead
}

Database::~Database() { ::munmap(mapping_, mapping_bytes_); }

std::string_view Database::ReadRecord(RecordId record) const {
  assert(record < num_records());
  return std::string_view(bytes_ + record * record_bytes_, record_bytes_);
}

void Database::WriteRecord(RecordId record, std::string_view data) {
  assert(record < num_records());
  assert(data.size() == record_bytes_);
  std::copy(data.begin(), data.end(), bytes_ + record * record_bytes_);
}

std::string_view Database::ReadSegment(SegmentId segment) const {
  assert(segment < num_segments());
  return std::string_view(bytes_ + segment * segment_bytes_, segment_bytes_);
}

std::span<char> Database::MutableSegment(SegmentId segment) {
  assert(segment < num_segments());
  return std::span<char>(bytes_ + segment * segment_bytes_, segment_bytes_);
}

void Database::Clear() { std::memset(bytes_, 0, size_bytes_); }

uint32_t Database::Checksum() const {
  return crc32c::Value(bytes_, size_bytes_);
}

}  // namespace mmdb
