// Microbenchmarks (google-benchmark, real wall-clock time) for the hot
// paths of the engine: transaction commit, log append/encode, CRC, segment
// staging, checkpoint sweeps, and recovery replay. These measure the
// implementation itself, complementing the figure benches which measure
// the modeled (virtual-time) behaviour.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "benchmark/benchmark.h"
#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "txn/lock_manager.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "util/random.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

EngineOptions BenchOptions(Algorithm a = Algorithm::kFuzzyCopy) {
  EngineOptions opt;
  opt.params.db.db_words = 1ull << 20;  // 128 segments of 8192 words
  opt.algorithm = a;
  return opt;
}

// CRC32C through the public API (labelled with the kernel it dispatches
// to), the portable slice-by-8 kernel, and the byte-at-a-time reference,
// at a WAL frame, a page and a backup segment: the bytes/second ratios
// are the kernel wins every CRC call site inherits.
void CrcLoop(benchmark::State& state, crc32c::internal::ExtendFn extend,
             const char* label) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(label);
}

void BM_Crc32c(benchmark::State& state) {
  CrcLoop(state, crc32c::Extend, crc32c::internal::Dispatched().name);
}
BENCHMARK(BM_Crc32c)->Arg(128)->Arg(4096)->Arg(32768);

void BM_Crc32cSliceBy8(benchmark::State& state) {
  // The portable kernel comes last in dispatch order.
  const crc32c::internal::Kernel& portable =
      crc32c::internal::Kernels().back();
  CrcLoop(state, portable.extend, portable.name);
}
BENCHMARK(BM_Crc32cSliceBy8)->Arg(128)->Arg(4096)->Arg(32768);

void BM_Crc32cBytewise(benchmark::State& state) {
  CrcLoop(state, crc32c::internal::ExtendBytewise, "bytewise_reference");
}
BENCHMARK(BM_Crc32cBytewise)->Arg(128)->Arg(4096)->Arg(32768);

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord record = LogRecord::Update(12345, 67890, std::string(128, 'q'));
  record.lsn = 1u << 20;
  std::string out;
  for (auto _ : state) {
    out.clear();
    EncodeLogFrame(record, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LogRecordEncode);

void BM_LogRecordDecode(benchmark::State& state) {
  LogRecord record = LogRecord::Update(12345, 67890, std::string(128, 'q'));
  record.lsn = 1u << 20;
  std::string payload;
  record.EncodeTo(&payload);
  LogRecord out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogRecord::DecodeFrom(payload, &out));
  }
}
BENCHMARK(BM_LogRecordDecode);

void BM_MakeRecordImage(benchmark::State& state) {
  uint64_t marker = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeRecordImage(128, 42, marker++));
  }
}
BENCHMARK(BM_MakeRecordImage);

// Arg 0: updates per transaction. Arg 1: observability on (1) or off (0) —
// the pairs quantify the registry/trace cost on the hottest path (the
// acceptance bar is "no measurable difference").
void BM_TxnCommit(benchmark::State& state) {
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions();
  opt.enable_metrics = state.range(1) != 0;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  state.SetLabel(opt.enable_metrics ? "metrics_on" : "metrics_off");
  Engine& e = **engine;
  Random rng(1);
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  std::string image = MakeRecordImage(e.db().record_bytes(), 0, 0);
  for (auto _ : state) {
    Transaction* t = e.Begin();
    for (uint32_t i = 0; i < k; ++i) {
      RecordId r = rng.Uniform(e.db().num_records());
      (void)e.Write(t, r, image);
    }
    benchmark::DoNotOptimize(e.Commit(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnCommit)
    ->Args({1, 1})
    ->Args({5, 1})
    ->Args({20, 1})
    ->Args({1, 0})
    ->Args({5, 0})
    ->Args({20, 0});

// The lock table under real multi-threaded contention: every thread
// acquires and releases an exclusive lock on a random record, all through
// the table's one mutex. The single-threaded row is the uncontended fast
// path; Threads(4) shows what sharing the mutex costs.
void BM_LockContention(benchmark::State& state) {
  static LockManager* locks = nullptr;
  constexpr uint64_t kRecords = 256 * 64;
  if (state.thread_index() == 0) locks = new LockManager();
  Random rng(1 + static_cast<uint64_t>(state.thread_index()));
  const TxnId txn = static_cast<TxnId>(state.thread_index() + 1);
  std::vector<RecordId> held(1);
  for (auto _ : state) {
    RecordId r = rng.Uniform(kRecords);
    if (locks->Acquire(txn, r, LockManager::Mode::kExclusive).ok()) {
      held[0] = r;
      locks->ReleaseAll(txn, held);
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete locks;
    locks = nullptr;
  }
}
BENCHMARK(BM_LockContention)->Threads(1)->Threads(4)->UseRealTime();

void BM_CheckpointFull(benchmark::State& state) {
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions();
  opt.checkpoint_mode = CheckpointMode::kFull;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  Engine& e = **engine;
  for (auto _ : state) {
    if (!e.RunCheckpointToCompletion().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(e.db().size_bytes()));
}
BENCHMARK(BM_CheckpointFull)->Unit(benchmark::kMillisecond);

void BM_CheckpointAlgorithms(benchmark::State& state) {
  const Algorithm algorithms[] = {
      Algorithm::kFuzzyCopy, Algorithm::kTwoColorFlush,
      Algorithm::kTwoColorCopy, Algorithm::kCouFlush, Algorithm::kCouCopy};
  Algorithm a = algorithms[state.range(0)];
  state.SetLabel(std::string(AlgorithmName(a)));
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions(a);
  opt.checkpoint_mode = CheckpointMode::kFull;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!(*engine)->RunCheckpointToCompletion().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
}
BENCHMARK(BM_CheckpointAlgorithms)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryReplay(benchmark::State& state) {
  // Build a crashed engine state once per iteration batch is too slow;
  // instead rebuild per iteration on a small database.
  for (auto _ : state) {
    state.PauseTiming();
    auto env = NewMemEnv();
    EngineOptions opt = BenchOptions();
    opt.params.db.db_words = 64 * 1024;
    opt.params.db.segment_words = 1024;
    auto engine = Engine::Open(opt, env.get());
    if (!engine.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    Engine& e = **engine;
    (void)e.RunCheckpointToCompletion();
    WorkloadOptions wopt;
    wopt.duration = 0.2;
    wopt.run_checkpoints = false;
    WorkloadDriver driver(&e, wopt);
    (void)driver.Run();
    e.FlushLog();
    (void)e.AdvanceTime(1.0);
    (void)e.Crash();
    state.ResumeTiming();
    benchmark::DoNotOptimize(e.Recover());
  }
}
BENCHMARK(BM_RecoveryReplay)->Unit(benchmark::kMillisecond);

void BM_WorkloadSecond(benchmark::State& state) {
  // Real seconds to simulate one virtual second of the paper's workload.
  for (auto _ : state) {
    state.PauseTiming();
    auto env = NewMemEnv();
    auto engine = Engine::Open(BenchOptions(), env.get());
    if (!engine.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    WorkloadOptions wopt;
    wopt.duration = 1.0;
    WorkloadDriver driver(engine->get(), wopt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(driver.Run());
  }
}
BENCHMARK(BM_WorkloadSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mmdb

// Like BENCHMARK_MAIN(), plus the harness-wide wall_seconds/jobs report
// every bench emits. google-benchmark times each case on the calling
// thread, so the measured cases always run serially (jobs=1 here by
// design — concurrent timing would contaminate the numbers; the sweep
// parallelism lives in the figure benches, see DESIGN.md §12).
int main(int argc, char** argv) {
  auto start = std::chrono::steady_clock::now();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  std::fprintf(stderr, "micro_engine: wall_seconds=%.3f jobs=1\n",
               wall.count());
  return 0;
}
