// E14 — extension: service restartability and recovery cost.
//
// The flip side of the paper's fault-isolation argument (§3.1): if a
// storage service is "just a server", it can be *replaced*. This bench
// crashes the storage service in both architectures, restarts it, and
// measures the recovery cost in simulated cycles and crossings — the
// microkernel's user-level server versus the VMM's Parallax storage VM
// (which must boot a whole domain). Data must survive in both.

#include <cstdio>

#include "src/experiments/table.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"

namespace {

using minios::SyscallRet;

struct Recovery {
  bool data_survived = false;
  uint64_t restart_cycles = 0;
  uint64_t restart_crossings = 0;
};

template <typename StackT, typename KillFn, typename RestartFn>
Recovery MeasureRecovery(StackT& stack, KillFn kill, RestartFn restart) {
  Recovery r;
  ukvm::ProcessId pid;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    pid = *os.Spawn("app");
    const SyscallRet fd = os.Create(pid, "precious");
    std::vector<uint8_t> data = {1, 2, 3, 4};
    (void)os.Write(pid, fd, data);
    (void)os.Close(pid, fd);
  });

  kill(stack);
  const uint64_t t0 = stack.machine().Now();
  const uint64_t x0 = stack.machine().ledger().total_count();
  restart(stack);
  // Recovery is complete when a client can use the service again.
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    const SyscallRet fd = os.Open(pid, "precious");
    if (fd >= 0) {
      std::vector<uint8_t> back(4);
      r.data_survived = os.Read(pid, fd, back) == 4 &&
                        back == std::vector<uint8_t>({1, 2, 3, 4});
    }
  });
  r.restart_cycles = stack.machine().Now() - t0;
  r.restart_crossings = stack.machine().ledger().total_count() - x0;
  return r;
}

}  // namespace

int main() {
  uharness::PrintHeading("E14", "crash the storage service, replace it, keep the data");

  uharness::Table table("storage-service crash + restart",
                        {"architecture", "replacement unit", "recovery cycles",
                         "crossings during recovery", "data survived"});

  {
    ustack::UkernelStack stack;
    Recovery r = MeasureRecovery(
        stack, [](ustack::UkernelStack& s) { (void)s.KillBlockServer(); },
        [](ustack::UkernelStack& s) { (void)s.RestartBlockServer(); });
    table.AddRow({"ukernel", "user-level server task", uharness::FmtInt(r.restart_cycles),
                  uharness::FmtInt(r.restart_crossings), r.data_survived ? "yes" : "NO"});
  }
  {
    ustack::VmmStack::Config config;
    config.parallax_storage = true;
    ustack::VmmStack stack(config);
    Recovery r = MeasureRecovery(
        stack, [](ustack::VmmStack& s) { (void)s.KillStorage(); },
        [](ustack::VmmStack& s) { (void)s.RestartStorage(); });
    table.AddRow({"vmm + parallax", "whole storage VM", uharness::FmtInt(r.restart_cycles),
                  uharness::FmtInt(r.restart_crossings), r.data_survived ? "yes" : "NO"});
  }
  table.Print();

  std::printf(
      "\nShape check: both architectures can replace the dead service with client data\n"
      "intact — the service really is 'just a server' in both worlds (§3.1). The VMM's\n"
      "replacement unit is a whole domain (memory allocation, event channels, ring\n"
      "reconnects), the microkernel's a task — same semantics, different granularity.\n");
  uharness::WriteJsonIfRequested("E14");
  return 0;
}
