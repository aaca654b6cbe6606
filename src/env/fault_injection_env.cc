#include "env/fault_injection_env.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace mmdb {
namespace {

enum class OpClass : uint8_t { kWrite, kSync, kRead };

bool KindMatchesClass(FaultKind kind, OpClass cls) {
  switch (kind) {
    case FaultKind::kWriteError:
    case FaultKind::kShortWrite:
    case FaultKind::kTornWrite:
      return cls == OpClass::kWrite;
    case FaultKind::kSyncError:
      return cls == OpClass::kSync;
    case FaultKind::kReadError:
    case FaultKind::kCorruptRead:
      return cls == OpClass::kRead;
  }
  return false;
}

Status Injected(const std::string& path, const char* what) {
  return IoError(path + ": injected " + what);
}

}  // namespace

struct FaultInjectionEnv::State {
  struct ActiveRule {
    FaultRule rule;
    uint64_t remaining;  // firings left; 0 = unlimited (rule.times == 0)
    bool unlimited;
  };

  // Guards everything below, so op numbering, rule budgets, and listener
  // firing stay serialized for callers on several threads (the listener
  // itself runs under the lock — keep them cheap).
  std::mutex mu;
  uint64_t op_count = 0;
  uint64_t faults_fired = 0;
  std::vector<ActiveRule> rules;
  std::vector<std::pair<const void*, FaultInjectionEnv::FaultListener>>
      listeners;

  // Numbers this operation and returns the fault to apply, if any.
  std::optional<FaultKind> NextOp(OpClass cls, const std::string& path) {
    std::lock_guard<std::mutex> lock(mu);
    uint64_t op = op_count++;
    for (ActiveRule& ar : rules) {
      if (op < ar.rule.after_ops) continue;
      if (!ar.unlimited && ar.remaining == 0) continue;
      if (!KindMatchesClass(ar.rule.kind, cls)) continue;
      if (path.find(ar.rule.path_substring) == std::string::npos) continue;
      if (!ar.unlimited) --ar.remaining;
      ++faults_fired;
      for (auto& [owner, listener] : listeners) listener(ar.rule.kind, path, op);
      return ar.rule.kind;
    }
    return std::nullopt;
  }
};

namespace {

using State = FaultInjectionEnv::State;

// Numbers one write op and applies its fault, if any; `write` lands a
// prefix of `data` for the shapes that tear.
Status FaultedWrite(State* state, const std::string& path,
                    std::string_view data,
                    const std::function<Status(std::string_view)>& write) {
  auto fault = state->NextOp(OpClass::kWrite, path);
  if (!fault) return write(data);
  switch (*fault) {
    case FaultKind::kWriteError:
      return Injected(path, "write error");
    case FaultKind::kShortWrite:
      MMDB_RETURN_IF_ERROR(write(data.substr(0, data.size() / 2)));
      return Injected(path, "short write");
    case FaultKind::kTornWrite:
      return write(data.substr(0, data.size() / 2));
    default:
      return write(data);
  }
}

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, std::string path,
                    std::shared_ptr<State> state)
      : base_(std::move(base)),
        path_(std::move(path)),
        state_(std::move(state)) {}

  Status Append(std::string_view data) override {
    return FaultedWrite(state_.get(), path_, data,
                        [&](std::string_view d) { return base_->Append(d); });
  }

  Status Sync() override {
    if (state_->NextOp(OpClass::kSync, path_)) {
      return Injected(path_, "sync error");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  std::shared_ptr<State> state_;
};

// Flips one bit in the middle of a read result, modeling a device that
// returns plausible-but-wrong bytes rather than an error.
void CorruptReadResult(std::string* out) {
  if (!out->empty()) (*out)[out->size() / 2] ^= 0x01;
}

Status FaultedRead(State* state, const std::string& path,
                   const std::function<Status()>& read, std::string* out) {
  auto fault = state->NextOp(OpClass::kRead, path);
  if (fault && *fault == FaultKind::kReadError) {
    return Injected(path, "read error");
  }
  MMDB_RETURN_IF_ERROR(read());
  if (fault && *fault == FaultKind::kCorruptRead) CorruptReadResult(out);
  return Status::OK();
}

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        std::string path, std::shared_ptr<State> state)
      : base_(std::move(base)),
        path_(std::move(path)),
        state_(std::move(state)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return FaultedRead(
        state_.get(), path_,
        [&] { return base_->Read(offset, n, out); }, out);
  }

  StatusOr<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  std::string path_;
  std::shared_ptr<State> state_;
};

class FaultRandomWriteFile : public RandomWriteFile {
 public:
  FaultRandomWriteFile(std::unique_ptr<RandomWriteFile> base, std::string path,
                       std::shared_ptr<State> state)
      : base_(std::move(base)),
        path_(std::move(path)),
        state_(std::move(state)) {}

  Status WriteAt(uint64_t offset, std::string_view data) override {
    return FaultedWrite(state_.get(), path_, data, [&](std::string_view d) {
      return base_->WriteAt(offset, d);
    });
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return FaultedRead(
        state_.get(), path_,
        [&] { return base_->Read(offset, n, out); }, out);
  }

  // A write op that moves no data: every write kind fails it whole.
  Status Truncate(uint64_t size) override {
    if (state_->NextOp(OpClass::kWrite, path_)) {
      return Injected(path_, "truncate error");
    }
    return base_->Truncate(size);
  }

  Status Sync() override {
    if (state_->NextOp(OpClass::kSync, path_)) {
      return Injected(path_, "sync error");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomWriteFile> base_;
  std::string path_;
  std::shared_ptr<State> state_;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base), state_(std::make_shared<State>()) {}

FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::InjectFault(const FaultRule& rule) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->rules.push_back(
      State::ActiveRule{rule, rule.times, rule.times == 0});
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->rules.clear();
}

uint64_t FaultInjectionEnv::op_count() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->op_count;
}

uint64_t FaultInjectionEnv::faults_fired() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->faults_fired;
}

void FaultInjectionEnv::AddFaultListener(const void* owner,
                                         FaultListener listener) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->listeners.emplace_back(owner, std::move(listener));
}

void FaultInjectionEnv::RemoveFaultListeners(const void* owner) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto& ls = state_->listeners;
  ls.erase(std::remove_if(ls.begin(), ls.end(),
                          [owner](const auto& e) { return e.first == owner; }),
           ls.end());
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        base_->NewWritableFile(path));
  return {std::make_unique<FaultWritableFile>(std::move(file), path, state_)};
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewAppendableFile(
    const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        base_->NewAppendableFile(path));
  return {std::make_unique<FaultWritableFile>(std::move(file), path, state_)};
}

StatusOr<std::unique_ptr<RandomAccessFile>>
FaultInjectionEnv::NewRandomAccessFile(const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        base_->NewRandomAccessFile(path));
  return {
      std::make_unique<FaultRandomAccessFile>(std::move(file), path, state_)};
}

StatusOr<std::unique_ptr<RandomWriteFile>>
FaultInjectionEnv::NewRandomWriteFile(const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomWriteFile> file,
                        base_->NewRandomWriteFile(path));
  return {
      std::make_unique<FaultRandomWriteFile>(std::move(file), path, state_)};
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

StatusOr<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  return base_->CreateDirIfMissing(path);
}

Status FaultInjectionEnv::ListDir(const std::string& path,
                                  std::vector<std::string>* children) {
  return base_->ListDir(path, children);
}

}  // namespace mmdb
