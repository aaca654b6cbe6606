#ifndef MMDB_ENV_FAULT_INJECTION_ENV_H_
#define MMDB_ENV_FAULT_INJECTION_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "env/env.h"

namespace mmdb {

// The partial-failure shapes a storage stack must tolerate, beyond the
// whole-process crash that Engine::Crash already models.
enum class FaultKind : uint8_t {
  kWriteError,   // Append/WriteAt/Truncate fails; no bytes reach the file
  kShortWrite,   // a prefix of the data lands, then the op reports IoError
  kTornWrite,    // a prefix lands but the op reports success (silent tear;
                 // only a checksum layer can catch it)
  kSyncError,    // Sync fails (the classic lost fsync)
  kReadError,    // Read fails
  kCorruptRead,  // Read succeeds with one bit flipped in the middle byte
};

inline std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWriteError:
      return "write_error";
    case FaultKind::kShortWrite:
      return "short_write";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kSyncError:
      return "sync_error";
    case FaultKind::kReadError:
      return "read_error";
    case FaultKind::kCorruptRead:
      return "corrupt_read";
  }
  return "unknown";
}

// One scheduled fault. Matching is deterministic: every data-path
// operation (Append, WriteAt, Truncate, Sync, Read) on any file of the
// wrapped Env is numbered 0, 1, 2, ...; the rule fires on the first
// operation whose number is >= `after_ops`, whose class matches `kind`
// (write kinds match writes and truncates, kSyncError matches syncs, read
// kinds match reads), and whose file path contains `path_substring`. It
// then fires on every further matching op until `times` firings are spent.
// A truncate moves no data, so every write kind fails it whole.
struct FaultRule {
  FaultKind kind = FaultKind::kWriteError;
  std::string path_substring;  // empty matches every file
  uint64_t after_ops = 0;      // operation number at which the rule arms
  uint64_t times = 1;          // firings before the rule disarms (0 = never)
};

// Env decorator that injects the faults scheduled via InjectFault into an
// otherwise-unmodified delegate. Deterministic by construction (no clocks,
// no randomness), so a failing fault-sweep point can be replayed exactly.
// Metadata operations (open, rename, delete, list) always succeed if the
// delegate succeeds; the write/sync/read kinds cover every failure this
// engine's recovery protocol must survive. Only the CHECKPOINT metadata and
// the log's prefix drop (LogManager::TruncateBefore) go through a temp file
// and a rename; torn tails of the log and the journal are cut in place
// (Env::CutFile: a numbered Truncate, then a Sync).
//
// File handles opened through this Env share its fault state and remain
// valid for the Env's lifetime. Like the delegate Envs, not thread-safe.
class FaultInjectionEnv : public Env {
 public:
  // `base` must outlive this Env.
  explicit FaultInjectionEnv(Env* base);
  ~FaultInjectionEnv() override;

  // Schedules a fault. Multiple rules may be active; the first match wins
  // for any given operation.
  void InjectFault(const FaultRule& rule);
  // Disarms all rules (already-applied damage stays, as on real hardware).
  void ClearFaults();

  // Data-path operations seen so far (fired or not).
  uint64_t op_count() const;
  // Rule firings so far.
  uint64_t faults_fired() const;

  // Observer called on every rule firing with the fault kind, the faulted
  // file's path, and the data-path operation number. Keyed by `owner` so a
  // subscriber can unregister without knowing about other subscribers
  // (e.g. an Engine tracing faults removes only its own listener when it
  // is destroyed). Listeners must not call back into this Env.
  using FaultListener =
      std::function<void(FaultKind, const std::string& path, uint64_t op)>;
  void AddFaultListener(const void* owner, FaultListener listener);
  void RemoveFaultListeners(const void* owner);

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  StatusOr<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override;
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  StatusOr<std::unique_ptr<RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override;

  // Opaque shared fault-schedule state (public so the file wrappers in the
  // implementation can name it; not part of the API).
  struct State;

 private:
  Env* base_;
  std::shared_ptr<State> state_;
};

}  // namespace mmdb

#endif  // MMDB_ENV_FAULT_INJECTION_ENV_H_
