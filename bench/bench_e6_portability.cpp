// E6 — portability matrix (table).
//
// Paper §2.2: "software that is written for an L4 microkernel naturally
// runs on nine different processor platforms ... In contrast, [VMM]
// software developed for one VMM is inherently unportable across
// architectures." Both complete stacks (identical source) are booted on
// every simulated platform; the matrix records what ran unmodified and
// which architecture-specific mechanisms were available.

#include <cstdio>

#include "src/experiments/table.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

const char* YesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main() {
  uharness::PrintHeading("E6", "one source tree across platforms");

  uharness::Table table("portability matrix (same binaries, per platform)",
                        {"platform", "page", "ukernel stack", "ukernel workload", "vmm stack",
                         "vmm workload", "fast syscall gate", "workload cycles (uk)"});

  for (const hwsim::Platform& platform : hwsim::AllPlatforms()) {
    bool uk_boots = false;
    bool uk_work = false;
    uint64_t uk_cycles = 0;
    {
      ustack::UkernelStack::Config config;
      config.platform = platform;
      ustack::UkernelStack stack(config);
      uk_boots = stack.guest(0).booted;
      if (uk_boots) {
        stack.RunAsApp(0, [&] {
          auto pid = stack.guest_os(0).Spawn("w");
          auto result =
              uwork::RunFileChurn(stack.machine(), stack.guest_os(0), *pid, 3, 2048, "port");
          uk_work = result.SuccessRate() == 1.0;
          uk_cycles = result.cycles;
        });
      }
    }

    bool vmm_boots = false;
    bool vmm_work = false;
    bool fast_gate = false;
    {
      ustack::VmmStack::Config config;
      config.platform = platform;
      ustack::VmmStack stack(config);
      vmm_boots = stack.guest(0).booted;
      if (vmm_boots) {
        stack.RunAsApp(0, [&] {
          auto pid = stack.guest_os(0).Spawn("w");
          auto result =
              uwork::RunFileChurn(stack.machine(), stack.guest_os(0), *pid, 3, 2048, "port");
          vmm_work = result.SuccessRate() == 1.0;
        });
        fast_gate = stack.hv().FindDomain(stack.guest(0).domain)->fast_trap_enabled;
      }
    }

    table.AddRow({platform.name, uharness::FmtInt(platform.page_size()), YesNo(uk_boots),
                  YesNo(uk_work), YesNo(vmm_boots), YesNo(vmm_work), YesNo(fast_gate),
                  uharness::FmtInt(uk_cycles)});
  }
  table.Print();

  std::printf(
      "\nShape check: the microkernel stack and its user-level servers run unmodified\n"
      "everywhere — the kernel hides page size, TLB style, and segmentation. The VMM\n"
      "stack also boots (this reproduction shares the portable substrate), but its\n"
      "x86-specific optimisation — the trap-gate syscall shortcut of section 3.2 —\n"
      "exists only where segmentation does, illustrating the paper's point that VMM\n"
      "interfaces mirror one architecture's peculiarities.\n");
  uharness::WriteJsonIfRequested("E6");
  return 0;
}
