#!/usr/bin/env bash
# Builds the bench suite and runs the experiments that export machine-readable
# results: the deterministic benches listed in scripts/det_benches.sh (E1 IPC
# ping-pong, E2 syscall paths, E3 Dom0 CPU accounting, E4 crossing counts,
# E5 fault-isolation blast radius, E6 portability, E7 per-primitive cycles
# and E8 trust-boundary orderings (both put their line counts in the _HOST
# file), E9 flip vs copy, E10 small spaces, E11 lmbench ops, E12 MMU
# batching, E13 scheduler fairness, E14 storage-service restart cost, E15
# chaos soak, E16 batched datapath, E18 TLB shootdown scaling, E19
# crash-recovery latency + exactly-once ledger, E21 L4 fast-path IPC, E23
# the completed fast-path family, and the observer matrix behind
# E17/E20/E22). Each bench writes
# BENCH_<id>.json into $OUT alongside its human-readable tables on stdout;
# host wall-clock columns go to a separate BENCH_<id>_HOST.json so the
# deterministic tables stay bit-exact. The observer matrix additionally
# writes a Perfetto-loadable Chrome trace and flamegraph.pl collapsed stacks
# (tag e17_netsplit) and a request-flow view plus per-request table (tag
# e22_recovery) into $OUT via UKVM_TRACE_DIR.
#
# After the deterministic suite, bench_simspeed reports *wall-clock* harness
# throughput (host ns per simulated hot op; BM_LifecycleSeed's
# items_per_second is fuzz seeds/sec). Wall-clock numbers vary by host, so
# they are printed for tracking but never written into the bit-exact
# BENCH_*.json set.
#
#   OUT=results ./scripts/bench.sh      # default OUT is bench-results/
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
OUT="${OUT:-bench-results}"
BUILD="${BUILD:-build}"

# shellcheck source=scripts/det_benches.sh
source scripts/det_benches.sh
benches=()
for entry in "${DET_BENCHES[@]}"; do
  benches+=("${entry%% *}")
done

cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j"${JOBS}" --target "${benches[@]}" bench_simspeed

mkdir -p "${OUT}"
export UKVM_BENCH_JSON="${OUT}"
export UKVM_TRACE_DIR="${OUT}"

for bench in "${benches[@]}"; do
  echo "== ${bench} =="
  "${BUILD}/bench/${bench}"
  echo
done

echo "== bench_simspeed (wall-clock harness throughput; not in the bit-exact set) =="
# Older google-benchmark releases reject the suffixed "0.05s" spelling; the
# bare double works on both (newer ones print a deprecation notice).
"${BUILD}/bench/bench_simspeed" --benchmark_min_time=0.05
echo

echo "JSON results:"
ls -1 "${OUT}"/BENCH_*.json
