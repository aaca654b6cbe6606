#ifndef HOSTBENCH_SPAN_RECORDER_H_
#define HOSTBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hostbench {

// Host nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder for the traced run. Spans nest on a stack (the
// benchmark is single-threaded): a span opened while another is open is its
// child. Each span carries a name (a layer boundary such as "txn.commit" or
// "env.wal"), start, end, parent id, and a group id shared by every call of
// one transaction or restart cycle.
//
// Self time — a span's duration minus the time its children cover — is
// aggregated per name online, so it stays exact however many spans run;
// only the first `max_kept` spans are retained for the trace file, which
// records how many were dropped.
class SpanRecorder {
 public:
  struct Layer {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanRecorder(size_t max_kept = 200000) : max_kept_(max_kept) {}

  // `name` must outlive the recorder (string literals do).
  void Begin(const char* name, uint64_t group) { Begin(name, group, NowNs()); }
  void End() { End(NowNs()); }
  // Explicit-time forms, for tests.
  void Begin(const char* name, uint64_t group, int64_t now_ns);
  void End(int64_t now_ns);

  size_t depth() const { return stack_.size(); }
  // Aggregates by span name.
  const std::unordered_map<std::string_view, Layer>& layers() const {
    return layers_;
  }
  // Summed self time of all closed spans: the summed duration of the
  // top-level ones.
  int64_t self_ns() const { return self_ns_; }
  uint64_t spans() const { return next_id_ - 1; }
  size_t kept() const { return kept_.size(); }
  uint64_t dropped() const { return spans() - kept(); }

  // Writes the retained spans as a Chrome trace-event file (Perfetto and
  // chrome://tracing load it): one complete ("X") event per span, with its
  // id, parent and group in args, and the span, kept and dropped counts in
  // the file's "otherData" metadata.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t id;
    uint64_t group;
  };
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t group;
  };

  size_t max_kept_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::unordered_map<std::string_view, Layer> layers_;
  uint64_t next_id_ = 1;
  int64_t self_ns_ = 0;
  int64_t epoch_ns_ = -1;
};

// Opens a span for the enclosing scope; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t group = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, group);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_SPAN_RECORDER_H_
