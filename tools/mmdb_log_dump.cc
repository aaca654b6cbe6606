// mmdb_log_dump: print or summarize a REDO log file.
//
//   mmdb_log_dump <wal.log>             one line per record
//   mmdb_log_dump <wal.log> --summary   counts, checkpoints, torn-tail flag
//   mmdb_log_dump <wal.log> --from=N    dump from logical offset N
//   mmdb_log_dump <wal.log> --json      one JSON document (machine-readable)

#include <cstdio>
#include <cstring>
#include <string>

#include "env/env.h"
#include "tools/inspect.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <log-file> [--summary] [--from=offset] [--json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  std::string path = argv[1];
  bool summary = false;
  bool json = false;
  uint64_t from = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--from=", 7) == 0) {
      if (!mmdb::ParseNumber(argv[i] + 7, &from)) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  mmdb::Env* env = mmdb::Env::Posix();
  if (json) {
    if (summary) {
      std::fprintf(stderr, "--json and --summary are mutually exclusive\n");
      return 2;
    }
    std::string out;
    auto emitted = mmdb::DumpLogJson(env, path, from, &out);
    if (!emitted.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   emitted.status().ToString().c_str());
      return 1;
    }
    std::fputs(out.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (summary) {
    auto result = mmdb::SummarizeLog(env, path);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::fputs(result->ToString().c_str(), stdout);
    return 0;
  }
  auto printed = mmdb::DumpLog(env, path, from, stdout);
  if (!printed.ok()) {
    std::fprintf(stderr, "error: %s\n", printed.status().ToString().c_str());
    return 1;
  }
  return 0;
}
