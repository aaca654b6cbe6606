#include "env/env.h"

#include <algorithm>
#include <cstring>

namespace mmdb {

StatusOr<size_t> RandomWriteFile::ReadInto(uint64_t offset,
                                           std::span<char> dst) const {
  std::string buf;
  MMDB_RETURN_IF_ERROR(Read(offset, dst.size(), &buf));
  const size_t got = std::min(buf.size(), dst.size());
  std::memcpy(dst.data(), buf.data(), got);
  return got;
}

Status Env::WriteStringToFile(const std::string& path, std::string_view data,
                              bool sync) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        NewWritableFile(path));
  MMDB_RETURN_IF_ERROR(file->Append(data));
  if (sync) MMDB_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status Env::CutFile(const std::string& path, uint64_t size) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomWriteFile> file,
                        NewRandomWriteFile(path));
  MMDB_RETURN_IF_ERROR(file->Truncate(size));
  MMDB_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status Env::ReadFileToString(const std::string& path, std::string* out) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        NewRandomAccessFile(path));
  MMDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  return file->Read(0, size, out);
}

}  // namespace mmdb
