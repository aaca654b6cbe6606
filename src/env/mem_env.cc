#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <span>

#include "env/env.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

// Shared byte buffer representing one in-memory file. Handles keep a
// shared_ptr so a file stays readable even if concurrently deleted from the
// directory map (mirroring POSIX unlink semantics).
struct MemFileData {
  std::string contents;
};

using FileMap = std::map<std::string, std::shared_ptr<MemFileData>>;

// Bytes of `contents` a read of n bytes at `offset` returns: short only at
// end-of-file.
size_t ReadableBytes(const std::string& contents, uint64_t offset, size_t n) {
  if (offset >= contents.size()) return 0;
  return std::min(n, contents.size() - static_cast<size_t>(offset));
}

Status ReadString(const std::string& contents, uint64_t offset, size_t n,
                  std::string* out) {
  out->clear();
  const size_t len = ReadableBytes(contents, offset, n);
  if (len > 0) out->assign(contents, static_cast<size_t>(offset), len);
  return Status::OK();
}

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status Append(std::string_view chunk) override {
    data_->contents.append(chunk.data(), chunk.size());
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override { return data_->contents.size(); }

 private:
  std::shared_ptr<MemFileData> data_;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return ReadString(data_->contents, offset, n, out);
  }

  StatusOr<uint64_t> Size() const override {
    return static_cast<uint64_t>(data_->contents.size());
  }

 private:
  std::shared_ptr<MemFileData> data_;
};

class MemRandomWriteFile : public RandomWriteFile {
 public:
  explicit MemRandomWriteFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status WriteAt(uint64_t offset, std::string_view chunk) override {
    std::string& c = data_->contents;
    uint64_t end = offset + chunk.size();
    if (c.size() < end) c.resize(end, '\0');
    std::copy(chunk.begin(), chunk.end(), c.begin() + offset);
    return Status::OK();
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return ReadString(data_->contents, offset, n, out);
  }

  StatusOr<size_t> ReadInto(uint64_t offset,
                            std::span<char> dst) const override {
    const std::string& c = data_->contents;
    const size_t len = ReadableBytes(c, offset, dst.size());
    if (len > 0) std::memcpy(dst.data(), c.data() + offset, len);
    return len;
  }

  Status Truncate(uint64_t size) override {
    data_->contents.resize(size, '\0');
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFileData> data_;
};

class MemEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto data = std::make_shared<MemFileData>();
    files_[path] = data;
    return {std::make_unique<MemWritableFile>(std::move(data))};
  }

  StatusOr<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return {std::make_unique<MemWritableFile>(FileAt(path))};
  }

  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return NotFoundError(path);
    return {std::make_unique<MemRandomAccessFile>(it->second)};
  }

  StatusOr<std::unique_ptr<RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) override {
    return {std::make_unique<MemRandomWriteFile>(FileAt(path))};
  }

  bool FileExists(const std::string& path) override {
    return files_.count(path) > 0;
  }

  StatusOr<uint64_t> FileSize(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return NotFoundError(path);
    return static_cast<uint64_t>(it->second->contents.size());
  }

  Status DeleteFile(const std::string& path) override {
    if (files_.erase(path) == 0) return NotFoundError(path);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    auto it = files_.find(from);
    if (it == files_.end()) return NotFoundError(from);
    files_[to] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string&) override {
    return Status::OK();  // Directories are implicit.
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override {
    children->clear();
    std::string prefix = path;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    for (const auto& [name, data] : files_) {
      if (StartsWith(name, prefix)) {
        std::string rest = name.substr(prefix.size());
        // Only direct children.
        if (rest.find('/') == std::string::npos) children->push_back(rest);
      }
    }
    return Status::OK();
  }

 private:
  // The file at `path`, created empty if absent.
  std::shared_ptr<MemFileData> FileAt(const std::string& path) {
    std::shared_ptr<MemFileData>& data = files_[path];
    if (data == nullptr) data = std::make_shared<MemFileData>();
    return data;
  }

  FileMap files_;
};

}  // namespace

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace mmdb
