#ifndef HOSTBENCH_TIMED_ENV_H_
#define HOSTBENCH_TIMED_ENV_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "env/env.h"
#include "span_recorder.h"

namespace hostbench {

// Which engine file a path belongs to, by its base name: the REDO log
// streams (wal.log, wal.log.<k> and their rewrite temps), the two backup
// copies, the provenance journal, and everything else (the CHECKPOINT
// metadata and its temp).
enum class PathClass : uint8_t { kWal, kBackup, kMeta, kAudit };
inline constexpr size_t kNumPathClasses = 4;

PathClass ClassifyPath(std::string_view path);
const char* PathClassName(PathClass c);

// Per-class I/O accounting of a TimedEnv.
struct IoTally {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  int64_t read_ns = 0;
  int64_t write_ns = 0;  // appends, positional writes, truncates, syncs
  int64_t other_ns = 0;  // opens, renames, deletes, listings, closes
};

// Env decorator for the traced run: forwards every call to `base` and
// counts ops, bytes and host nanoseconds per PathClass. With a recorder,
// each call is also a span ("env.wal", "env.backup", ...) that nests inside
// the engine call that issued it. Untraced runs use the base Env directly.
class TimedEnv : public mmdb::Env {
 public:
  TimedEnv(mmdb::Env* base, SpanRecorder* spans) : base_(base), spans_(spans) {}

  const IoTally& tally(PathClass c) const {
    return tallies_[static_cast<size_t>(c)];
  }
  int64_t total_read_ns() const;

  mmdb::StatusOr<std::unique_ptr<mmdb::WritableFile>> NewWritableFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::WritableFile>> NewAppendableFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  mmdb::StatusOr<uint64_t> FileSize(const std::string& path) override;
  mmdb::Status DeleteFile(const std::string& path) override;
  mmdb::Status RenameFile(const std::string& from,
                          const std::string& to) override;
  mmdb::Status CreateDirIfMissing(const std::string& path) override;
  mmdb::Status ListDir(const std::string& path,
                       std::vector<std::string>* children) override;

  // Times `fn` as one operation of class `c`, then counts `bytes()` moved
  // (evaluated after the call, so reads count what they returned). Used by
  // the file wrappers as well as the Env methods.
  enum class Op : uint8_t { kRead, kWrite, kOther };
  template <typename Fn, typename Bytes>
  auto Time(PathClass c, Op op, Fn&& fn, Bytes&& bytes) {
    ScopedSpan span(spans_, kSpanNames[static_cast<size_t>(c)]);
    const int64_t start = NowNs();
    auto result = fn();
    Account(c, op, bytes(), NowNs() - start);
    return result;
  }
  template <typename Fn>
  auto Time(PathClass c, Op op, Fn&& fn) {
    return Time(c, op, std::forward<Fn>(fn), [] { return uint64_t{0}; });
  }

 private:
  static constexpr const char* kSpanNames[kNumPathClasses] = {
      "env.wal", "env.backup", "env.meta", "env.audit"};

  void Account(PathClass c, Op op, uint64_t bytes, int64_t ns);

  mmdb::Env* base_;
  SpanRecorder* spans_;
  std::array<IoTally, kNumPathClasses> tallies_{};
};

}  // namespace hostbench

#endif  // HOSTBENCH_TIMED_ENV_H_
