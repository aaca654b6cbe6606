#ifndef MMDB_ENV_ENV_H_
#define MMDB_ENV_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace mmdb {

// Append-only file handle used for the log and for writing backups.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::string_view data) = 0;
  // Durably persists appended data (fsync for PosixEnv).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
  // Bytes appended so far.
  virtual uint64_t Size() const = 0;
};

// Positional-read file handle used for recovery and backup reads.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Reads up to n bytes starting at `offset` into *out (replacing its
  // contents). Short reads at end-of-file are not an error.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
  virtual StatusOr<uint64_t> Size() const = 0;
};

// A file that supports in-place positional writes; used by the backup store,
// which overwrites segment slots of a preallocated database image.
class RandomWriteFile {
 public:
  virtual ~RandomWriteFile() = default;

  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
  // Reads up to dst.size() bytes starting at `offset` straight into `dst`
  // and returns the count read, short only at end-of-file. The default
  // reads into a string through Read and copies, so decorators that only
  // override Read (fault injection, metering) still see every byte;
  // PosixEnv and MemEnv read in place.
  virtual StatusOr<size_t> ReadInto(uint64_t offset,
                                    std::span<char> dst) const;
  // Sets the file's size: cuts it to `size` bytes, or grows it to `size`
  // with zeros (ftruncate on PosixEnv). Follow with Sync() to make it
  // durable.
  virtual Status Truncate(uint64_t size) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

// Minimal filesystem abstraction. Two implementations ship with the library:
// Env::Posix() (real files) and NewMemEnv() (in-memory, for tests and for
// running thousands of simulated crash/recover cycles quickly).
//
// Thread-compatibility: the engine is single-threaded by design; Env
// implementations are not required to be thread-safe.
class Env {
 public:
  virtual ~Env() = default;

  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  // Opens for appending, preserving existing contents (creates if absent).
  virtual StatusOr<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;
  virtual StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  virtual StatusOr<std::unique_ptr<RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual StatusOr<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  // Atomic within an Env instance.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* children) = 0;

  // Convenience helpers implemented on top of the primitives above.
  Status WriteStringToFile(const std::string& path, std::string_view data,
                           bool sync);
  Status ReadFileToString(const std::string& path, std::string* out);
  // Sets `path`'s size in place (Truncate) and syncs it: how a torn tail
  // is cut, with no second copy of the file.
  Status CutFile(const std::string& path, uint64_t size);

  // Process-wide POSIX environment (never deleted).
  static Env* Posix();
};

// Returns a fresh, empty in-memory filesystem. The caller owns it and must
// keep it alive for as long as any file handle opened from it.
std::unique_ptr<Env> NewMemEnv();

}  // namespace mmdb

#endif  // MMDB_ENV_ENV_H_
