#include "timed_env.h"

#include <utility>

namespace hostbench {
namespace {

using mmdb::Status;
using mmdb::StatusOr;

std::string_view BaseName(std::string_view path) {
  const size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

class TimedWritableFile : public mmdb::WritableFile {
 public:
  TimedWritableFile(TimedEnv* env, PathClass c,
                    std::unique_ptr<mmdb::WritableFile> file)
      : env_(env), class_(c), file_(std::move(file)) {}

  Status Append(std::string_view data) override {
    return env_->Time(
        class_, TimedEnv::Op::kWrite, [&] { return file_->Append(data); },
        [&] { return uint64_t{data.size()}; });
  }
  Status Sync() override {
    return env_->Time(class_, TimedEnv::Op::kWrite,
                      [&] { return file_->Sync(); });
  }
  Status Close() override {
    return env_->Time(class_, TimedEnv::Op::kOther,
                      [&] { return file_->Close(); });
  }
  uint64_t Size() const override { return file_->Size(); }

 private:
  TimedEnv* env_;
  PathClass class_;
  std::unique_ptr<mmdb::WritableFile> file_;
};

class TimedRandomAccessFile : public mmdb::RandomAccessFile {
 public:
  TimedRandomAccessFile(TimedEnv* env, PathClass c,
                        std::unique_ptr<mmdb::RandomAccessFile> file)
      : env_(env), class_(c), file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return env_->Time(
        class_, TimedEnv::Op::kRead,
        [&] { return file_->Read(offset, n, out); },
        [&] { return uint64_t{out->size()}; });
  }
  StatusOr<uint64_t> Size() const override { return file_->Size(); }

 private:
  TimedEnv* env_;
  PathClass class_;
  std::unique_ptr<mmdb::RandomAccessFile> file_;
};

class TimedRandomWriteFile : public mmdb::RandomWriteFile {
 public:
  TimedRandomWriteFile(TimedEnv* env, PathClass c,
                       std::unique_ptr<mmdb::RandomWriteFile> file)
      : env_(env), class_(c), file_(std::move(file)) {}

  Status WriteAt(uint64_t offset, std::string_view data) override {
    return env_->Time(
        class_, TimedEnv::Op::kWrite,
        [&] { return file_->WriteAt(offset, data); },
        [&] { return uint64_t{data.size()}; });
  }
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return env_->Time(
        class_, TimedEnv::Op::kRead,
        [&] { return file_->Read(offset, n, out); },
        [&] { return uint64_t{out->size()}; });
  }
  Status Truncate(uint64_t size) override {
    return env_->Time(class_, TimedEnv::Op::kWrite,
                      [&] { return file_->Truncate(size); });
  }
  Status Sync() override {
    return env_->Time(class_, TimedEnv::Op::kWrite,
                      [&] { return file_->Sync(); });
  }
  Status Close() override {
    return env_->Time(class_, TimedEnv::Op::kOther,
                      [&] { return file_->Close(); });
  }

 private:
  TimedEnv* env_;
  PathClass class_;
  std::unique_ptr<mmdb::RandomWriteFile> file_;
};

// Wraps a successfully opened handle; errors pass through unchanged.
template <typename Wrapper, typename File>
StatusOr<std::unique_ptr<File>> Wrap(TimedEnv* env, PathClass c,
                                     StatusOr<std::unique_ptr<File>> opened) {
  if (!opened.ok()) return opened.status();
  return {std::unique_ptr<File>(
      std::make_unique<Wrapper>(env, c, std::move(*opened)))};
}

}  // namespace

PathClass ClassifyPath(std::string_view path) {
  const std::string_view name = BaseName(path);
  if (name.starts_with("wal.log")) return PathClass::kWal;
  if (name.starts_with("backup_")) return PathClass::kBackup;
  if (name.starts_with("audit.log")) return PathClass::kAudit;
  return PathClass::kMeta;
}

const char* PathClassName(PathClass c) {
  switch (c) {
    case PathClass::kWal:
      return "wal";
    case PathClass::kBackup:
      return "backup";
    case PathClass::kMeta:
      return "meta";
    case PathClass::kAudit:
      return "audit";
  }
  return "unknown";
}

int64_t TimedEnv::total_read_ns() const {
  int64_t ns = 0;
  for (const IoTally& t : tallies_) ns += t.read_ns;
  return ns;
}

void TimedEnv::Account(PathClass c, Op op, uint64_t bytes, int64_t ns) {
  IoTally& t = tallies_[static_cast<size_t>(c)];
  switch (op) {
    case Op::kRead:
      ++t.read_ops;
      t.read_bytes += bytes;
      t.read_ns += ns;
      break;
    case Op::kWrite:
      ++t.write_ops;
      t.write_bytes += bytes;
      t.write_ns += ns;
      break;
    case Op::kOther:
      t.other_ns += ns;
      break;
  }
}

StatusOr<std::unique_ptr<mmdb::WritableFile>> TimedEnv::NewWritableFile(
    const std::string& path) {
  const PathClass c = ClassifyPath(path);
  return Wrap<TimedWritableFile>(
      this, c, Time(c, Op::kOther, [&] { return base_->NewWritableFile(path); }));
}

StatusOr<std::unique_ptr<mmdb::WritableFile>> TimedEnv::NewAppendableFile(
    const std::string& path) {
  const PathClass c = ClassifyPath(path);
  return Wrap<TimedWritableFile>(
      this, c,
      Time(c, Op::kOther, [&] { return base_->NewAppendableFile(path); }));
}

StatusOr<std::unique_ptr<mmdb::RandomAccessFile>> TimedEnv::NewRandomAccessFile(
    const std::string& path) {
  const PathClass c = ClassifyPath(path);
  return Wrap<TimedRandomAccessFile>(
      this, c,
      Time(c, Op::kOther, [&] { return base_->NewRandomAccessFile(path); }));
}

StatusOr<std::unique_ptr<mmdb::RandomWriteFile>> TimedEnv::NewRandomWriteFile(
    const std::string& path) {
  const PathClass c = ClassifyPath(path);
  return Wrap<TimedRandomWriteFile>(
      this, c,
      Time(c, Op::kOther, [&] { return base_->NewRandomWriteFile(path); }));
}

bool TimedEnv::FileExists(const std::string& path) {
  return Time(ClassifyPath(path), Op::kOther,
              [&] { return base_->FileExists(path); });
}

StatusOr<uint64_t> TimedEnv::FileSize(const std::string& path) {
  return Time(ClassifyPath(path), Op::kOther,
              [&] { return base_->FileSize(path); });
}

Status TimedEnv::DeleteFile(const std::string& path) {
  return Time(ClassifyPath(path), Op::kOther,
              [&] { return base_->DeleteFile(path); });
}

Status TimedEnv::RenameFile(const std::string& from, const std::string& to) {
  return Time(ClassifyPath(to), Op::kOther,
              [&] { return base_->RenameFile(from, to); });
}

Status TimedEnv::CreateDirIfMissing(const std::string& path) {
  return Time(PathClass::kMeta, Op::kOther,
              [&] { return base_->CreateDirIfMissing(path); });
}

Status TimedEnv::ListDir(const std::string& path,
                         std::vector<std::string>* children) {
  return Time(PathClass::kMeta, Op::kOther,
              [&] { return base_->ListDir(path, children); });
}

}  // namespace hostbench
