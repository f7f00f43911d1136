#!/usr/bin/env bash
# The full static-analysis / sanitizer gate:
#
#   1. strict build (UKVM_WERROR=ON) + complete test suite;
#   2. clang-tidy over src/ with the repo's .clang-tidy, gating: every
#      enabled check is an error (skipped with a notice when no clang-tidy
#      binary is installed);
#   3. AddressSanitizer+UBSan build (UKVM_SANITIZE=ON) + complete suite,
#      with assertions live: RelWithDebInfo's flags would add -DNDEBUG and
#      compile every assert in src/ out of the gate;
#   4. ThreadSanitizer build (UKVM_TSAN=ON) + complete suite — the simulator
#      is single-threaded by design, so any report is a design break;
#   5. E18 lifecycle fuzz sweep: the cross-stack fuzzer's full seed bank
#      (UKVM_FUZZ_SEEDS, default 128 here vs 32 in plain ctest) under ASan,
#      every seed auditor-clean and two-run deterministic — the ukernel
#      banks run as an E23 configuration matrix (full fast-path family and
#      Call-only);
#   6. E19 recovery fuzz sweep: the crash-recovery fuzzer (mid-flight
#      backend kills, journal replay, exactly-once read-back) on all three
#      storage stacks with the extended seed bank, under ASan — the ukernel
#      bank runs the same E23 configuration matrix;
#   7. E23 differential IPC fuzz sweep: seeded random IPC histories run
#      twice (fast path on vs off) under ASan; every seed must produce
#      identical results, identical end-state digests, a balanced ledger,
#      and a clean auditor/race-detector, with every family path taken;
#   8. bench gates: every deterministic bench (scripts/det_benches.sh) runs
#      once, and the stage fails if it exits non-zero on its own gate or if
#      its regenerated BENCH_*.json differs by one byte from the committed
#      bench-results/ baseline — the sim is deterministic, so any drift is
#      a perf regression (or an uncommitted baseline). Host wall-clock
#      columns live in BENCH_*_HOST.json, which is never compared. A
#      failing bench's output is printed. Among the own gates:
#        - bench_observer_matrix runs six workload shapes with no observer,
#          each observer alone (auditor, tracer, race detector, request
#          tracer) and all four at once, and exits non-zero if any cell
#          perturbs simulated time, cycle attribution or crossing totals by
#          even one cycle, if the all-on cell changes any observer's
#          counters, on any auditor/race violation or span mismatch, on
#          less than 95% cycle attribution, on fewer than 99% fully
#          parented requests (or any orphaned handoff), or if the E19 crash
#          shape's slowest request fails to name detect/reconnect/replay;
#        - bench_e21_ipc_fastpath exits non-zero unless the L4 fast path is
#          >=2x on two platforms, the E1/E11 shapes improve, and a
#          fastpath-on run is auditor/race-detector clean;
#        - bench_e23_replywait exits non-zero unless reply-wait coalescing
#          is >=1.3x vs the E21 Call-only baseline on at least two platform
#          shapes, Send/Notify/fault-IPC ride the fast stubs, the pinned
#          window saves exactly (N-1)*pte_write over a burst, and a
#          full-family run is checker-clean.
#
# Stage 8 runs the benches stage 1 already built: observers never charge
# simulated cycles, so the strict tree (auditor on by default) regenerates
# the committed baselines bit-exactly. The sanitizer trees run no bench, so
# they build only the test binary.
#
# Exits non-zero if any stage that can run fails. Build trees live under
# build-check/ so the default build/ is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "== [1/8] strict build (-Werror) + tests =="
cmake -B build-check/werror -S . -DUKVM_WERROR=ON >/dev/null
cmake --build build-check/werror -j"${JOBS}"
ctest --test-dir build-check/werror -j"${JOBS}" --output-on-failure

echo "== [2/8] clang-tidy over src/ (gating) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The strict tree has a fresh compile_commands.json for it to use. The
  # explicit --warnings-as-errors mirrors .clang-tidy's WarningsAsErrors so
  # the stage gates even under an older clang-tidy that ignores the config
  # key: any diagnostic fails the xargs pipeline and, via set -e, the script.
  cmake -B build-check/werror -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cc' -print0 |
    xargs -0 -n1 -P"${JOBS}" clang-tidy -p build-check/werror --quiet \
      --warnings-as-errors='*'
else
  echo "clang-tidy not installed; skipping lint stage (build+tests still gate)."
fi

echo "== [3/8] ASan+UBSan build + tests =="
cmake -B build-check/asan -S . -DUKVM_SANITIZE=ON \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
cmake --build build-check/asan -j"${JOBS}" --target ukvm_tests
ctest --test-dir build-check/asan -j"${JOBS}" --output-on-failure

echo "== [4/8] TSan build + tests =="
cmake -B build-check/tsan -S . -DUKVM_TSAN=ON >/dev/null
cmake --build build-check/tsan -j"${JOBS}" --target ukvm_tests
ctest --test-dir build-check/tsan -j"${JOBS}" --output-on-failure

echo "== [5/8] E18 lifecycle fuzz sweep (extended seed bank, ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-128}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzLifecycle.*'

echo "== [6/8] E19 recovery fuzz sweep (extended seed bank, ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-128}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzRecovery.*'

echo "== [7/8] E23 differential fast-vs-slow IPC fuzz sweep (ASan) =="
UKVM_FUZZ_SEEDS="${UKVM_FUZZ_SEEDS:-128}" \
  build-check/asan/tests/ukvm_tests --gtest_filter='FuzzIpcDiff.*'

echo "== [8/8] bench gates + bench JSON bit-exact perf-regression gate =="
# shellcheck source=scripts/det_benches.sh
source scripts/det_benches.sh
rm -rf build-check/bench-json
mkdir -p build-check/bench-json
for entry in "${DET_BENCHES[@]}"; do
  read -r bench json <<<"${entry}"
  log="build-check/bench-json/${bench}.log"
  if ! UKVM_BENCH_JSON=build-check/bench-json UKVM_TRACE_DIR=build-check/bench-json \
      "build-check/werror/bench/${bench}" >"${log}" 2>&1; then
    cat "${log}" >&2
    echo "BENCH GATE FAILED: ${bench} exited non-zero (its output is above)" >&2
    exit 1
  fi
  baseline="bench-results/${json}"
  regen="build-check/bench-json/${json}"
  if ! cmp -s "${baseline}" "${regen}"; then
    echo "PERF REGRESSION: ${baseline} no longer matches a fresh run:" >&2
    diff -u "${baseline}" "${regen}" >&2 || true
    exit 1
  fi
done
echo "all deterministic bench JSONs regenerate bit-identically."

echo "check.sh: all stages passed."
