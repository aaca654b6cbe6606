#include "span_recorder.h"

#include <cstdio>

namespace hostbench {

void SpanRecorder::Begin(const char* name, uint64_t group, int64_t now_ns) {
  if (epoch_ns_ < 0) epoch_ns_ = now_ns;
  stack_.push_back(Open{name, now_ns, 0, next_id_++, group});
}

void SpanRecorder::End(int64_t now_ns) {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  const int64_t self = duration - open.child_ns;
  Layer& layer = layers_[open.name];
  ++layer.count;
  layer.total_ns += duration;
  layer.self_ns += self;
  self_ns_ += self;
  uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  if (kept_.size() < max_kept_) {
    kept_.push_back(
        Span{open.name, open.start_ns, now_ns, open.id, parent, open.group});
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":%llu,"
               "\"kept\":%zu,\"dropped\":%llu},\"traceEvents\":[\n",
               static_cast<unsigned long long>(spans()), kept(),
               static_cast<unsigned long long>(dropped()));
  bool first = true;
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"group\":%llu}}",
                 first ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace hostbench
