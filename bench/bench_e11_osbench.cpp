// E11 — OS microbenchmarks across substrates (lmbench-style table).
//
// The paper leans on Härtig et al., "The performance of µ-kernel-based
// systems" [HHL+97], which compared native Linux against L4Linux with
// lmbench-style operations. This bench reproduces that comparison across
// all four configurations of this repository: native, L4Linux-style
// microkernel, paravirtual VMM with the fast gate, and the VMM degraded to
// trap-and-reflect.
//
// For I/O operations, the interesting number is *busy* CPU cycles (device
// latency shows up as idle time and would swamp the software-path cost), so
// both totals are reported.

#include <cstdio>
#include <functional>

#include "src/experiments/table.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"

namespace {

struct OpCost {
  uint64_t busy = 0;  // non-idle cycles per op
  uint64_t wall = 0;  // elapsed simulated cycles per op
};

struct Bench {
  std::string name;
  // Runs `iters` of the operation on (os, pid); returns ops done.
  std::function<uint64_t(minios::Os&, ukvm::ProcessId, int iters)> op;
};

std::vector<Bench> MakeBenches() {
  return {
      {"null syscall",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           done += os.Null(pid) == 0 ? 1 : 0;
         }
         return done;
       }},
      {"getpid",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           done += os.GetPid(pid) >= 0 ? 1 : 0;
         }
         return done;
       }},
      {"open+close",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         if (os.Open(pid, "bench-oc") < 0) {
           (void)os.Create(pid, "bench-oc");
         }
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           const auto fd = os.Open(pid, "bench-oc");
           if (fd >= 0 && os.Close(pid, fd) == 0) {
             ++done;
           }
         }
         return done;
       }},
      {"write 512B (file)",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         auto fd = os.Open(pid, "bench-w");
         if (fd < 0) {
           fd = os.Create(pid, "bench-w");
         }
         std::vector<uint8_t> block(512, 0x5A);
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           (void)os.Seek(pid, fd, 0);
           done += os.Write(pid, fd, block) == 512 ? 1 : 0;
         }
         return done;
       }},
      {"read 512B (file)",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         auto fd = os.Open(pid, "bench-r");
         if (fd < 0) {
           fd = os.Create(pid, "bench-r");
         }
         std::vector<uint8_t> block(512, 0x5A);
         (void)os.Write(pid, fd, block);
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           (void)os.Seek(pid, fd, 0);
           done += os.Read(pid, fd, block) == 512 ? 1 : 0;
         }
         return done;
       }},
      {"udp send 64B",
       [](minios::Os& os, ukvm::ProcessId pid, int iters) {
         std::vector<uint8_t> payload(64, 1);
         uint64_t done = 0;
         for (int i = 0; i < iters; ++i) {
           done += os.NetSend(pid, 80, 7, payload) == 64 ? 1 : 0;
         }
         return done;
       }},
  };
}

constexpr int kIters = 50;

template <typename StackT>
std::vector<OpCost> RunAll(StackT& stack, minios::Os& os,
                           const std::function<void(const std::function<void()>&)>& in_context) {
  std::vector<OpCost> costs;
  uwork::WireHost wire(stack.machine(), stack.nic());
  auto& machine = stack.machine();
  for (auto& bench : MakeBenches()) {
    OpCost cost;
    in_context([&] {
      auto pid = os.Spawn("bench");
      // Warm up (allocates fds, files, driver state).
      (void)bench.op(os, *pid, 4);
      machine.RunUntilIdle();
      const uint64_t idle0 = machine.accounting().CyclesOf(hwsim::kIdleDomain);
      const uint64_t hw0 = machine.accounting().CyclesOf(ukvm::kHardwareDomain);
      const uint64_t t0 = machine.Now();
      const uint64_t done = bench.op(os, *pid, kIters);
      machine.RunUntilIdle();
      const uint64_t wall = machine.Now() - t0;
      const uint64_t idle = machine.accounting().CyclesOf(hwsim::kIdleDomain) - idle0;
      const uint64_t hw = machine.accounting().CyclesOf(ukvm::kHardwareDomain) - hw0;
      if (done > 0) {
        cost.wall = wall / done;
        cost.busy = (wall - std::min(wall, idle + hw)) / done;
      }
    });
    costs.push_back(cost);
  }
  return costs;
}

}  // namespace

int main() {
  uharness::PrintHeading("E11", "lmbench-style OS operations across substrates [HHL+97 style]");

  std::vector<std::vector<OpCost>> columns;
  std::vector<std::string> names;

  {
    ustack::NativeStack stack;
    names.push_back("native");
    columns.push_back(
        RunAll(stack, stack.os(), [&](const std::function<void()>& fn) { fn(); }));
  }
  {
    ustack::UkernelStack stack;
    names.push_back("ukernel (L4Linux)");
    columns.push_back(RunAll(stack, stack.guest_os(0), [&](const std::function<void()>& fn) {
      stack.RunAsApp(0, fn);
    }));
  }
  {
    ustack::VmmStack stack;
    names.push_back("vmm (fast gate)");
    columns.push_back(RunAll(stack, stack.guest_os(0), [&](const std::function<void()>& fn) {
      stack.RunAsApp(0, fn);
    }));
  }
  {
    ustack::VmmStack::Config config;
    config.request_fast_syscall = false;
    ustack::VmmStack stack(config);
    names.push_back("vmm (reflected)");
    columns.push_back(RunAll(stack, stack.guest_os(0), [&](const std::function<void()>& fn) {
      stack.RunAsApp(0, fn);
    }));
  }

  auto benches = MakeBenches();
  {
    std::vector<std::string> header = {"operation (busy cycles/op)"};
    for (const auto& name : names) {
      header.push_back(name);
    }
    uharness::Table table("software-path cost (device/idle time excluded)", header);
    for (size_t b = 0; b < benches.size(); ++b) {
      std::vector<std::string> row = {benches[b].name};
      for (const auto& col : columns) {
        row.push_back(uharness::FmtInt(col[b].busy));
      }
      table.AddRow(row);
    }
    table.Print();
  }
  {
    std::vector<std::string> header = {"operation (wall cycles/op)"};
    for (const auto& name : names) {
      header.push_back(name);
    }
    uharness::Table table("end-to-end simulated time (device latency included)", header);
    for (size_t b = 0; b < benches.size(); ++b) {
      std::vector<std::string> row = {benches[b].name};
      for (const auto& col : columns) {
        row.push_back(uharness::FmtInt(col[b].wall));
      }
      table.AddRow(row);
    }
    table.Print();
  }

  std::printf(
      "\nShape check ([HHL+97] found L4Linux within ~5-10%% of native on macro loads,\n"
      "2-4x on null syscalls): pure-CPU ops order native <= vmm-fast < vmm-reflected <\n"
      "ukernel; I/O-bound ops converge as device time dominates — the architecture\n"
      "tax matters exactly where the paper's IPC argument says it does.\n");
  uharness::WriteJsonIfRequested("E11");
  return 0;
}
