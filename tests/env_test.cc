// Env tests, run against both MemEnv and PosixEnv (in a temp directory)
// through a shared parameterized suite.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

enum class EnvKind { kMem, kPosix };

class EnvTest : public testing::TestWithParam<EnvKind> {
 protected:
  void SetUp() override {
    if (GetParam() == EnvKind::kMem) {
      owned_ = NewMemEnv();
      env_ = owned_.get();
      dir_ = "testdir";
    } else {
      env_ = Env::Posix();
      char tmpl[] = "/tmp/mmdb_env_test_XXXXXX";
      char* d = mkdtemp(tmpl);
      ASSERT_NE(d, nullptr);
      dir_ = d;
    }
    MMDB_ASSERT_OK(env_->CreateDirIfMissing(dir_));
  }

  void TearDown() override {
    std::error_code ignored;
    if (GetParam() == EnvKind::kPosix && !dir_.empty()) {
      std::filesystem::remove_all(dir_, ignored);
    }
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::unique_ptr<Env> owned_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("a"), "hello", true));
  std::string out;
  MMDB_ASSERT_OK(env_->ReadFileToString(Path("a"), &out));
  EXPECT_EQ(out, "hello");
}

TEST_P(EnvTest, AppendAccumulates) {
  auto file = env_->NewWritableFile(Path("log"));
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->Append("abc"));
  MMDB_ASSERT_OK((*file)->Append("def"));
  EXPECT_EQ((*file)->Size(), 6u);
  MMDB_ASSERT_OK((*file)->Sync());
  MMDB_ASSERT_OK((*file)->Close());
  std::string out;
  MMDB_ASSERT_OK(env_->ReadFileToString(Path("log"), &out));
  EXPECT_EQ(out, "abcdef");
}

TEST_P(EnvTest, AppendableFilePreservesContents) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("log"), "abc", true));
  auto file = env_->NewAppendableFile(Path("log"));
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->Append("def"));
  MMDB_ASSERT_OK((*file)->Close());
  std::string out;
  MMDB_ASSERT_OK(env_->ReadFileToString(Path("log"), &out));
  EXPECT_EQ(out, "abcdef");
}

TEST_P(EnvTest, RandomAccessReadsAtOffsets) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("f"), "0123456789", true));
  auto file = env_->NewRandomAccessFile(Path("f"));
  MMDB_ASSERT_OK(file);
  std::string out;
  MMDB_ASSERT_OK((*file)->Read(3, 4, &out));
  EXPECT_EQ(out, "3456");
  // Short read at EOF.
  MMDB_ASSERT_OK((*file)->Read(8, 10, &out));
  EXPECT_EQ(out, "89");
  // Past EOF: empty, not an error.
  MMDB_ASSERT_OK((*file)->Read(50, 4, &out));
  EXPECT_EQ(out, "");
  auto size = (*file)->Size();
  MMDB_ASSERT_OK(size);
  EXPECT_EQ(*size, 10u);
}

TEST_P(EnvTest, RandomWriteInPlaceAndGrow) {
  auto file = env_->NewRandomWriteFile(Path("seg"));
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->Truncate(16));
  MMDB_ASSERT_OK((*file)->WriteAt(4, "XYZ"));
  std::string out;
  MMDB_ASSERT_OK((*file)->Read(0, 16, &out));
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.substr(4, 3), "XYZ");
  EXPECT_EQ(out[0], '\0');
  // Write past the end grows the file.
  MMDB_ASSERT_OK((*file)->WriteAt(30, "AB"));
  MMDB_ASSERT_OK((*file)->Read(30, 2, &out));
  EXPECT_EQ(out, "AB");
  MMDB_ASSERT_OK((*file)->Sync());
  MMDB_ASSERT_OK((*file)->Close());
}

TEST_P(EnvTest, ReadIntoFillsTheCallersBuffer) {
  auto file = env_->NewRandomWriteFile(Path("direct"));
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->WriteAt(0, "0123456789"));
  // A full read at an offset.
  std::string buf(4, '?');
  auto got = (*file)->ReadInto(3, std::span<char>(buf));
  MMDB_ASSERT_OK(got);
  EXPECT_EQ(*got, 4u);
  EXPECT_EQ(buf, "3456");
  // A short read at end-of-file reports the count; the rest of the
  // buffer is left alone.
  buf.assign(6, '?');
  got = (*file)->ReadInto(7, std::span<char>(buf));
  MMDB_ASSERT_OK(got);
  EXPECT_EQ(*got, 3u);
  EXPECT_EQ(buf, "789???");
  // Past end-of-file: zero bytes, not an error.
  got = (*file)->ReadInto(50, std::span<char>(buf));
  MMDB_ASSERT_OK(got);
  EXPECT_EQ(*got, 0u);
  EXPECT_EQ(buf, "789???");
}

TEST_P(EnvTest, TruncateSetsTheSize) {
  auto file = env_->NewRandomWriteFile(Path("g"));
  MMDB_ASSERT_OK(file);
  MMDB_ASSERT_OK((*file)->WriteAt(0, "0123456789"));
  // Shrinks...
  MMDB_ASSERT_OK((*file)->Truncate(4));
  MMDB_ASSERT_OK((*file)->Sync());
  std::string out;
  MMDB_ASSERT_OK((*file)->Read(0, 10, &out));
  EXPECT_EQ(out, "0123");
  auto size = env_->FileSize(Path("g"));
  MMDB_ASSERT_OK(size);
  EXPECT_EQ(*size, 4u);
  // ...and grows, zero-filled: the cut bytes do not come back.
  MMDB_ASSERT_OK((*file)->Truncate(8));
  MMDB_ASSERT_OK((*file)->Read(0, 10, &out));
  EXPECT_EQ(out, std::string("0123") + std::string(4, '\0'));
  MMDB_ASSERT_OK((*file)->Close());
}

TEST_P(EnvTest, CutFileSetsTheSizeInPlace) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("h"), "0123456789", true));
  MMDB_ASSERT_OK(env_->CutFile(Path("h"), 6));
  std::string out;
  MMDB_ASSERT_OK(env_->ReadFileToString(Path("h"), &out));
  EXPECT_EQ(out, "012345");
  std::vector<std::string> children;
  MMDB_ASSERT_OK(env_->ListDir(dir_, &children));
  EXPECT_EQ(children, std::vector<std::string>{"h"});  // no second copy
}

TEST_P(EnvTest, FileExistsDeleteRename) {
  EXPECT_FALSE(env_->FileExists(Path("x")));
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("x"), "1", false));
  EXPECT_TRUE(env_->FileExists(Path("x")));
  MMDB_ASSERT_OK(env_->RenameFile(Path("x"), Path("y")));
  EXPECT_FALSE(env_->FileExists(Path("x")));
  EXPECT_TRUE(env_->FileExists(Path("y")));
  auto size = env_->FileSize(Path("y"));
  MMDB_ASSERT_OK(size);
  EXPECT_EQ(*size, 1u);
  MMDB_ASSERT_OK(env_->DeleteFile(Path("y")));
  EXPECT_FALSE(env_->FileExists(Path("y")));
  EXPECT_TRUE(env_->DeleteFile(Path("y")).IsNotFound() ||
              env_->DeleteFile(Path("y")).IsIoError());
}

TEST_P(EnvTest, RenameReplacesTarget) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("from"), "new", false));
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("to"), "old", false));
  MMDB_ASSERT_OK(env_->RenameFile(Path("from"), Path("to")));
  std::string out;
  MMDB_ASSERT_OK(env_->ReadFileToString(Path("to"), &out));
  EXPECT_EQ(out, "new");
}

TEST_P(EnvTest, ListDirSeesDirectChildren) {
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("a.txt"), "", false));
  MMDB_ASSERT_OK(env_->WriteStringToFile(Path("b.txt"), "", false));
  std::vector<std::string> children;
  MMDB_ASSERT_OK(env_->ListDir(dir_, &children));
  EXPECT_GE(children.size(), 2u);
  EXPECT_NE(std::find(children.begin(), children.end(), "a.txt"),
            children.end());
}

TEST_P(EnvTest, ReadMissingFileFails) {
  std::string out;
  Status st = env_->ReadFileToString(Path("missing"), &out);
  EXPECT_FALSE(st.ok());
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, EnvTest,
                         testing::Values(EnvKind::kMem, EnvKind::kPosix),
                         [](const testing::TestParamInfo<EnvKind>& info) {
                           return info.param == EnvKind::kMem ? "Mem"
                                                              : "Posix";
                         });

}  // namespace
}  // namespace mmdb
