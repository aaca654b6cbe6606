#!/usr/bin/env bash
# Builds and tests the tree's pre-merge configurations:
#
#   tools/check.sh            # plain + sanitize + tsan + bench-smoke + hostbench
#   tools/check.sh plain      # just the plain build (-Werror)
#   tools/check.sh sanitize   # just the ASan+UBSan build
#   tools/check.sh tsan       # just the TSan build (--tsan also accepted)
#   tools/check.sh bench-smoke  # figure benches vs the committed baselines
#   tools/check.sh hostbench  # hostbench_test + two short hostbench runs
#
# Build trees live in build/ (plain), build-sanitize/, build-tsan/ and
# build-hostbench/.
# The plain build compiles with -Werror, so the tree stays warning-free
# under -Wall -Wextra (the target-attributed CRC32C kernel included).
# The TSan gate builds and runs obs_test only: the metrics registry under
# concurrent increments (MetricsRegistryTest.ConcurrentIncrementsSum) is
# the one test that starts threads. The engines and the figure benches
# run on the calling thread (EngineTest.RecoverStartsNoThread pins that
# restarts start no thread), so the full suite under TSan would just
# re-test serial code at 10x the cost.
#
# The sanitize full suite runs with MMDB_AUDIT_EXPORT_DIR set, so every
# crash/recovery test exports its provenance journal and engine dump;
# each pair is then re-verified with the mmdb_audit binary (DESIGN.md
# §18), keeping the CLI verifier honest against the in-process one.
#
# The sanitize gate also re-runs the crash/recovery suites with
# MMDB_INSTANT_RECOVERY=1, forcing every restart through the on-demand
# instant-recovery path (DESIGN.md §19) under ASan+UBSan; that lane
# exports its journals to build-sanitize/audit-export-instant, where the
# mmdb_audit binary re-verifies them too, so the journals that carry
# recovery.segment_on_demand reach the CLI verifier as well. It smokes
# recovery_bench --quick in that lane (its modeled self-gate proves the
# drained instant state bit-identical to blocking recovery). The lane
# includes the logical-logging, COU and modern-algorithm suites, so delta
# REDO and their restarts also pass through the on-demand applier, and
# torture_test, so its random crash histories (log truncation on and off)
# restart through the on-demand applier too.
#
# The bench-smoke gate replays fig4a, fig_modern, fig_interference
# and recovery_bench with a shrunken trace ring
# (MMDB_TRACE_CAPACITY=64 — the capacity the committed baselines were
# recorded at; ring drop counts depend on it) and diffs each fresh
# sidecar against bench/baselines/*.json with mmdb_bench_diff. Everything
# but the "host" members (host-clock values, at any depth) is compared,
# each point's provenance "audit" block included: deterministic leaves
# must match exactly, timing leaves within 5%. Each smoke sidecar is
# deleted before its bench runs, so a bench that fails to write one
# fails the diff instead of passing on a stale file.
# Regenerate the baselines after an intentional engine/model change with
#   MMDB_TRACE_CAPACITY=64 \
#       MMDB_METRICS_SIDECAR=bench/baselines/fig4a.json \
#       ./build/bench/fig4a_overhead_recovery > /dev/null
#   MMDB_TRACE_CAPACITY=64 \
#       MMDB_METRICS_SIDECAR=bench/baselines/modern.json \
#       ./build/bench/fig_modern > /dev/null
#   MMDB_TRACE_CAPACITY=64 \
#       MMDB_METRICS_SIDECAR=bench/baselines/interference.json \
#       ./build/bench/fig_interference > /dev/null
#   MMDB_TRACE_CAPACITY=64 \
#       MMDB_METRICS_SIDECAR=bench/baselines/recovery.json \
#       ./build/bench/recovery_bench > /dev/null
#
# The hostbench gate builds the host-time benchmark (hostbench/, its own
# CMake project over the engine sources), runs hostbench_test, then runs
# hostbench/run.py for 5 s on `restart` (traced, so hostbench's TimedEnv
# wraps every engine file) and on `checkpoint` (untraced). Each run's last
# stdout line is its JSON result; the gate fails unless it reads
# "correct": true with "failed": 0.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
what=${1:-all}
what=${what#--}

run_config() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Re-verifies every (journal, dump) pair the test suites exported via
# MMDB_AUDIT_EXPORT_DIR with the mmdb_audit binary from $1, so the
# in-process verifier and the CLI can never drift apart (DESIGN.md §18).
verify_audit_exports() {
  local tree=$1 dir=$2 n=0 d
  for d in "$dir"/*/; do
    [ -e "$d/audit.log" ] || continue
    "./$tree/tools/mmdb_audit" verify "$d/audit.log" --dump="$d/dump.json"
    n=$((n + 1))
  done
  if [ "$n" -eq 0 ]; then
    echo "check.sh: no audit journals exported under $dir" >&2
    return 1
  fi
  echo "check.sh: mmdb_audit verified $n exported journals from $dir"
}

run_plain() {
  run_config build -DCMAKE_CXX_FLAGS=-Werror
}

run_sanitize() {
  cmake -B build-sanitize -S . -DMMDB_SANITIZE=address,undefined \
      -DMMDB_WERROR_UNUSED_RESULT=ON
  cmake --build build-sanitize -j "$jobs"
  rm -rf build-sanitize/audit-export
  MMDB_AUDIT_EXPORT_DIR="$PWD/build-sanitize/audit-export" \
      ctest --test-dir build-sanitize --output-on-failure -j "$jobs"
  verify_audit_exports build-sanitize build-sanitize/audit-export
  echo "check.sh: sanitize instant-recovery lane (MMDB_INSTANT_RECOVERY=1)"
  rm -rf build-sanitize/audit-export-instant
  MMDB_INSTANT_RECOVERY=1 \
      MMDB_AUDIT_EXPORT_DIR="$PWD/build-sanitize/audit-export-instant" \
      ctest --test-dir build-sanitize --output-on-failure -j "$jobs" \
      -R '^(recovery_test|restart_test|consistency_test|sweep_determinism_test|fault_injection_test|audit_test|obs_e2e_test|logical_logging_test|modern_test|cou_test|torture_test)$'
  verify_audit_exports build-sanitize build-sanitize/audit-export-instant
  echo "check.sh: sanitize bench smoke (recovery_bench --quick, instant lane)"
  MMDB_INSTANT_RECOVERY=1 \
      MMDB_METRICS_SIDECAR=build-sanitize/recovery_instant_asan_smoke.json \
      ./build-sanitize/bench/recovery_bench --quick > /dev/null
  echo "check.sh: sanitize bench smoke (fig_modern --quick)"
  MMDB_METRICS_SIDECAR=build-sanitize/fig_modern_asan_smoke.json \
      ./build-sanitize/bench/fig_modern --quick > /dev/null
  echo "check.sh: sanitize bench smoke (fig_interference --quick)"
  MMDB_METRICS_SIDECAR=build-sanitize/fig_interference_asan_smoke.json \
      ./build-sanitize/bench/fig_interference --quick > /dev/null
}

run_tsan() {
  cmake -B build-tsan -S . -DMMDB_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target obs_test
  ctest --test-dir build-tsan --output-on-failure -R '^obs_test$'
}

run_bench_smoke() {
  cmake -B build -S .
  cmake --build build -j "$jobs" \
      --target fig4a_overhead_recovery fig_modern fig_interference \
      recovery_bench mmdb_bench_diff
  echo "check.sh: bench smoke (fig4a vs bench/baselines/fig4a.json)"
  rm -f build/fig4a_bench_smoke.json
  MMDB_TRACE_CAPACITY=64 \
      MMDB_METRICS_SIDECAR=build/fig4a_bench_smoke.json \
      ./build/bench/fig4a_overhead_recovery > /dev/null
  ./build/tools/mmdb_bench_diff bench/baselines/fig4a.json \
      build/fig4a_bench_smoke.json
  echo "check.sh: bench smoke (fig_modern vs bench/baselines/modern.json)"
  rm -f build/fig_modern_bench_smoke.json
  MMDB_TRACE_CAPACITY=64 \
      MMDB_METRICS_SIDECAR=build/fig_modern_bench_smoke.json \
      ./build/bench/fig_modern > /dev/null
  ./build/tools/mmdb_bench_diff bench/baselines/modern.json \
      build/fig_modern_bench_smoke.json
  echo "check.sh: bench smoke (fig_interference vs bench/baselines/interference.json)"
  rm -f build/fig_interference_bench_smoke.json
  MMDB_TRACE_CAPACITY=64 \
      MMDB_METRICS_SIDECAR=build/fig_interference_bench_smoke.json \
      ./build/bench/fig_interference > /dev/null
  ./build/tools/mmdb_bench_diff bench/baselines/interference.json \
      build/fig_interference_bench_smoke.json
  echo "check.sh: bench smoke (recovery_bench vs bench/baselines/recovery.json)"
  rm -f build/recovery_bench_smoke.json
  MMDB_TRACE_CAPACITY=64 \
      MMDB_METRICS_SIDECAR=build/recovery_bench_smoke.json \
      ./build/bench/recovery_bench > /dev/null
  ./build/tools/mmdb_bench_diff bench/baselines/recovery.json \
      build/recovery_bench_smoke.json
}

run_hostbench() {
  local dir=build-hostbench
  cmake -S hostbench -B "$dir/hostbench"
  cmake --build "$dir/hostbench" -j "$jobs" --target hostbench hostbench_test
  "./$dir/hostbench/hostbench_test"
  local spec workload trace
  for spec in restart:1 checkpoint:0; do
    workload=${spec%:*}
    trace=${spec#*:}
    echo "check.sh: hostbench --workload $workload --seed 1 --seconds 5 --trace $trace"
    CARGO_TARGET_DIR="$dir" python3 hostbench/run.py --workload "$workload" \
        --seed 1 --seconds 5 --trace "$trace" | tail -n 1 \
        > "$dir/$workload.json"
    python3 - "$dir/$workload.json" <<'PY'
import json, sys
result = json.load(open(sys.argv[1]))
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("check.sh: hostbench run not clean: correct=%r failed=%r"
             % (result.get("correct"), result.get("failed")))
PY
  done
}

case "$what" in
  plain)
    run_plain
    ;;
  sanitize)
    run_sanitize
    ;;
  tsan)
    run_tsan
    ;;
  bench-smoke)
    run_bench_smoke
    ;;
  hostbench)
    run_hostbench
    ;;
  all)
    run_plain
    run_sanitize
    run_tsan
    run_bench_smoke
    run_hostbench
    ;;
  *)
    echo "usage: $0 [plain|sanitize|tsan|bench-smoke|hostbench|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: all requested configurations passed"
