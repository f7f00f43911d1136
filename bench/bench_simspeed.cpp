// Simulator hot-path throughput (google-benchmark).
//
// Unlike the E1-E9 harnesses, which report *simulated* cycles, this binary
// measures how fast the simulator itself executes the hot operations on the
// host — useful when sizing bigger experiments (how many simulated packets
// or IPCs per host-second we can afford).

#include <benchmark/benchmark.h>

#include "src/hw/machine.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"

namespace {

void BM_MachineChargeOnly(benchmark::State& state) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 1 << 20);
  machine.cpu().SetDomain(ukvm::DomainId(1));
  for (auto _ : state) {
    machine.Charge(100);
  }
}
BENCHMARK(BM_MachineChargeOnly);

void BM_PageTableMapUnmap(benchmark::State& state) {
  hwsim::PageTable pt(12, 32);
  uint64_t va = 0;
  for (auto _ : state) {
    (void)pt.Map(va, 1, hwsim::PtePerms{true, true});
    (void)pt.Unmap(va);
    va = (va + 4096) & 0xFFFFFFF;
  }
}
BENCHMARK(BM_PageTableMapUnmap);

void BM_TlbLookup(benchmark::State& state) {
  hwsim::Tlb tlb(64);
  for (uint32_t i = 0; i < 64; ++i) {
    tlb.Insert(i, i, true, true);
  }
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(vpn));
    vpn = (vpn + 1) % 64;
  }
}
BENCHMARK(BM_TlbLookup);

void BM_UkernelNullIpc(benchmark::State& state) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8 << 20);
  ukern::Kernel kernel(machine);
  auto server_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  auto server = kernel.CreateThread(*server_task, 128, [](ukvm::ThreadId, ukern::IpcMessage) {
    return ukern::IpcMessage{};
  });
  auto client_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  auto client = kernel.CreateThread(*client_task, 128, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.Call(*client, *server, ukern::IpcMessage::Short(1)));
  }
}
BENCHMARK(BM_UkernelNullIpc);

void BM_UkernelNullIpcFastpath(benchmark::State& state) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8 << 20);
  ukern::Kernel kernel(machine);
  kernel.SetIpcPath(ukern::IpcPath::kFamily);
  auto server_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  auto server = kernel.CreateThread(*server_task, 128, [](ukvm::ThreadId, ukern::IpcMessage) {
    return ukern::IpcMessage{};
  });
  auto client_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  auto client = kernel.CreateThread(*client_task, 128, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.Call(*client, *server, ukern::IpcMessage::Short(1)));
  }
}
BENCHMARK(BM_UkernelNullIpcFastpath);

// One "seed" = boot a full microkernel stack, push a small syscall workload
// through it, tear it down — the unit the E18/E19 fuzz banks repeat. With
// items_per_second this reports wall-clock seeds/sec, which is what sizes
// how large a seed bank check.sh can afford.
void BM_LifecycleSeed(benchmark::State& state) {
  for (auto _ : state) {
    ustack::UkernelStack stack;
    auto pid = stack.guest_os(0).Spawn("seed");
    (void)stack.kernel().ActivateThread(stack.guest(0).app_thread);
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(stack.guest_os(0).Null(*pid));
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("seeds");
}
BENCHMARK(BM_LifecycleSeed);

void BM_VmmHypercall(benchmark::State& state) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8 << 20);
  uvmm::Hypervisor hv(machine);
  auto guest = hv.CreateDomain("g", 16, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.HcSchedYield(*guest));
  }
}
BENCHMARK(BM_VmmHypercall);

void BM_NativeNullSyscall(benchmark::State& state) {
  ustack::NativeStack stack;
  auto pid = stack.os().Spawn("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.os().Null(*pid));
  }
}
BENCHMARK(BM_NativeNullSyscall);

void BM_UkernelStackNullSyscall(benchmark::State& state) {
  ustack::UkernelStack stack;
  auto pid = stack.guest_os(0).Spawn("bench");
  (void)stack.kernel().ActivateThread(stack.guest(0).app_thread);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.guest_os(0).Null(*pid));
  }
}
BENCHMARK(BM_UkernelStackNullSyscall);

void BM_VmmStackNullSyscall(benchmark::State& state) {
  ustack::VmmStack stack;
  auto pid = stack.guest_os(0).Spawn("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.guest_os(0).Null(*pid));
  }
}
BENCHMARK(BM_VmmStackNullSyscall);

}  // namespace

BENCHMARK_MAIN();
