# shellcheck shell=bash
# The deterministic benches, each with the bit-exact JSON it writes:
# scripts/bench.sh runs them, scripts/check.sh regenerates and compares
# their JSONs against bench-results/. Host wall-clock columns and source
# line counts go to a BENCH_<id>_HOST.json sibling, which is never compared.
DET_BENCHES=(
  "bench_e1_ipc_pingpong BENCH_E1.json"
  "bench_e2_syscall_paths BENCH_E2.json"
  "bench_e3_dom0_cpu BENCH_E3.json"
  "bench_e4_crossings BENCH_E4.json"
  "bench_e5_fault_isolation BENCH_E5.json"
  "bench_e6_portability BENCH_E6.json"
  "bench_e7_primitives BENCH_E7.json"
  "bench_e8_tcb_size BENCH_E8.json"
  "bench_e9_flip_vs_copy BENCH_E9.json"
  "bench_e10_small_spaces BENCH_E10.json"
  "bench_e11_osbench BENCH_E11.json"
  "bench_e12_mmu_batching BENCH_E12.json"
  "bench_e13_sched_fairness BENCH_E13.json"
  "bench_e14_service_restart BENCH_E14.json"
  "bench_e15_chaos_soak BENCH_E15.json"
  "bench_e16_batched_io BENCH_E16.json"
  "bench_e18_shootdown BENCH_E18.json"
  "bench_e19_recovery BENCH_E19.json"
  "bench_e21_ipc_fastpath BENCH_E21.json"
  "bench_e23_replywait BENCH_E23.json"
  "bench_observer_matrix BENCH_OBSERVERS.json"
)
