#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>

#include "env/env.h"
#include "util/string_util.h"

namespace mmdb {
namespace {

Status PosixError(const std::string& context, int err) {
  return IoError(context + ": " + std::strerror(err));
}

// The one pread loop: reads up to dst.size() bytes at `offset` into `dst`,
// retrying EINTR and partial reads. Returns the count read, short only at
// end-of-file.
StatusOr<size_t> PreadInto(const std::string& path, int fd, uint64_t offset,
                           std::span<char> dst) {
  size_t got = 0;
  while (got < dst.size()) {
    ssize_t r = ::pread(fd, dst.data() + got, dst.size() - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return PosixError(path, errno);
    }
    if (r == 0) break;  // EOF: short read is fine.
    got += static_cast<size_t>(r);
  }
  return got;
}

Status PreadString(const std::string& path, int fd, uint64_t offset, size_t n,
                   std::string* out) {
  out->resize(n);
  MMDB_ASSIGN_OR_RETURN(size_t got,
                        PreadInto(path, fd, offset, std::span<char>(*out)));
  out->resize(got);
  return Status::OK();
}

Status FdSync(const std::string& path, int fd) {
  if (::fdatasync(fd) != 0) return PosixError(path, errno);
  return Status::OK();
}

// Closes *fd once; later calls are no-ops.
Status FdClose(const std::string& path, int* fd) {
  const int closing = *fd;
  *fd = -1;
  if (closing >= 0 && ::close(closing) != 0) return PosixError(path, errno);
  return Status::OK();
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError(path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    size_ += data.size();
    return Status::OK();
  }

  Status Sync() override { return FdSync(path_, fd_); }
  Status Close() override { return FdClose(path_, &fd_); }

  uint64_t Size() const override { return size_; }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return PreadString(path_, fd_, offset, n, out);
  }

  StatusOr<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return PosixError(path_, errno);
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  std::string path_;
  int fd_;
};

class PosixRandomWriteFile : public RandomWriteFile {
 public:
  PosixRandomWriteFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixRandomWriteFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    uint64_t pos = offset;
    while (left > 0) {
      ssize_t n = ::pwrite(fd_, p, left, static_cast<off_t>(pos));
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError(path_, errno);
      }
      p += n;
      pos += static_cast<uint64_t>(n);
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    return PreadString(path_, fd_, offset, n, out);
  }

  StatusOr<size_t> ReadInto(uint64_t offset,
                            std::span<char> dst) const override {
    return PreadInto(path_, fd_, offset, dst);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return PosixError(path_, errno);
    }
    return Status::OK();
  }

  Status Sync() override { return FdSync(path_, fd_); }
  Status Close() override { return FdClose(path_, &fd_); }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return PosixError(path, errno);
    return {std::make_unique<PosixWritableFile>(path, fd, 0)};
  }

  StatusOr<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_CREAT | O_APPEND | O_WRONLY, 0644);
    if (fd < 0) return PosixError(path, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return PosixError(path, err);
    }
    return {std::make_unique<PosixWritableFile>(
        path, fd, static_cast<uint64_t>(st.st_size))};
  }

  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(path, errno);
    return {std::make_unique<PosixRandomAccessFile>(path, fd)};
  }

  StatusOr<std::unique_ptr<RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd < 0) return PosixError(path, errno);
    return {std::make_unique<PosixRandomWriteFile>(path, fd)};
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  StatusOr<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return PosixError(path, errno);
    return static_cast<uint64_t>(st.st_size);
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return PosixError(path, errno);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError(from, errno);
    }
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(path, errno);
    }
    return Status::OK();
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override {
    children->clear();
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return PosixError(path, errno);
    struct dirent* entry;
    while ((entry = ::readdir(dir)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") children->push_back(std::move(name));
    }
    ::closedir(dir);
    return Status::OK();
  }
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv* env = new PosixEnv();  // Never deleted; trivially "leaked".
  return env;
}

}  // namespace mmdb
