// mmdb_trace_report: convert an engine metrics document into Chrome
// trace_event JSON, loadable in ui.perfetto.dev or chrome://tracing.
//
// Input is JSON produced by Engine::DumpMetricsJson() — directly, a bench
// metrics sidecar ({"bench":...,"points":[...]}, which becomes one trace
// process per measured point, named by its label), or a bare
// Tracer::ToJson document; all three shapes are detected automatically.
//
//   mmdb_trace_report <metrics.json>              write to stdout
//   mmdb_trace_report <metrics.json> -o out.json  write to a file
//
// Exits non-zero when the input is malformed or carries no trace data
// (e.g. the sidecar was produced with tracing disabled).

#include <cstdio>
#include <cstring>
#include <string>

#include "env/env.h"
#include "obs/trace_export.h"
#include "util/status.h"

namespace mmdb {
namespace {

int Run(const std::string& in_path, const std::string& out_path) {
  std::string contents;
  Status read = Env::Posix()->ReadFileToString(in_path, &contents);
  if (!read.ok()) {
    std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
    return 1;
  }
  TraceExportStats stats;
  StatusOr<std::string> trace = ChromeTraceFromMetricsJson(contents, &stats);
  if (!trace.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", in_path.c_str(),
                 trace.status().ToString().c_str());
    return 1;
  }
  if (out_path.empty()) {
    std::printf("%s\n", trace->c_str());
  } else {
    Status written =
        Env::Posix()->WriteStringToFile(out_path, *trace + "\n",
                                        /*sync=*/false);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "trace report: %zu events exported, %zu skipped -> %s\n",
               stats.events_exported, stats.events_skipped,
               out_path.empty() ? "<stdout>" : out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "-o requires a path\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (in_path.empty()) {
      in_path = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (in_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <metrics.json> [-o out.json]\n",
                 argv[0]);
    return 2;
  }
  return mmdb::Run(in_path, out_path);
}
