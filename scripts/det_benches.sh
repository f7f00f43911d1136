# shellcheck shell=bash
# The deterministic benches, each with the bit-exact JSON it writes:
# scripts/bench.sh runs them, scripts/check.sh regenerates and compares
# their JSONs against bench-results/. Host wall-clock columns go to a
# BENCH_<id>_HOST.json sibling, which is never compared.
DET_BENCHES=(
  "bench_e1_ipc_pingpong BENCH_E1.json"
  "bench_e3_dom0_cpu BENCH_E3.json"
  "bench_e4_crossings BENCH_E4.json"
  "bench_e5_fault_isolation BENCH_E5.json"
  "bench_e8_tcb_size BENCH_E8.json"
  "bench_e14_service_restart BENCH_E14.json"
  "bench_e15_chaos_soak BENCH_E15.json"
  "bench_e16_batched_io BENCH_E16.json"
  "bench_e18_shootdown BENCH_E18.json"
  "bench_e19_recovery BENCH_E19.json"
  "bench_e21_ipc_fastpath BENCH_E21.json"
  "bench_e23_replywait BENCH_E23.json"
  "bench_observer_matrix BENCH_OBSERVERS.json"
)
