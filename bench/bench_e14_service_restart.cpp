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

// Crashes and restarts the storage service of a fresh `StackT`, then adds
// the recovery cost and whether a file written before the crash survived.
template <typename StackT>
void MeasureRecovery(uharness::Table& table, const char* arch, const char* unit,
                     const typename StackT::Config& config) {
  StackT stack(config);
  ukvm::ProcessId pid;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    pid = *os.Spawn("app");
    const SyscallRet fd = os.Create(pid, "precious");
    std::vector<uint8_t> data = {1, 2, 3, 4};
    (void)os.Write(pid, fd, data);
    (void)os.Close(pid, fd);
  });

  (void)stack.KillStorage();
  const uint64_t t0 = stack.machine().Now();
  const uint64_t x0 = stack.machine().ledger().total_count();
  (void)stack.RestartStorage();
  // Recovery is complete when a client can use the service again.
  bool data_survived = false;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    const SyscallRet fd = os.Open(pid, "precious");
    if (fd >= 0) {
      std::vector<uint8_t> back(4);
      data_survived = os.Read(pid, fd, back) == 4 && back == std::vector<uint8_t>({1, 2, 3, 4});
    }
  });
  table.AddRow({arch, unit, uharness::FmtInt(stack.machine().Now() - t0),
                uharness::FmtInt(stack.machine().ledger().total_count() - x0),
                data_survived ? "yes" : "NO"});
}

}  // namespace

int main() {
  uharness::PrintHeading("E14", "crash the storage service, replace it, keep the data");

  uharness::Table table("storage-service crash + restart",
                        {"architecture", "replacement unit", "recovery cycles",
                         "crossings during recovery", "data survived"});

  MeasureRecovery<ustack::UkernelStack>(table, "ukernel", "user-level server task", {});
  ustack::VmmStack::Config parallax;
  parallax.parallax_storage = true;
  MeasureRecovery<ustack::VmmStack>(table, "vmm + parallax", "whole storage VM", parallax);
  table.Print();

  std::printf(
      "\nShape check: both architectures can replace the dead service with client data\n"
      "intact — the service really is 'just a server' in both worlds (§3.1). The VMM's\n"
      "replacement unit is a whole domain (memory allocation, event channels, ring\n"
      "reconnects), the microkernel's a task — same semantics, different granularity.\n");
  uharness::WriteJsonIfRequested("E14");
  return 0;
}
