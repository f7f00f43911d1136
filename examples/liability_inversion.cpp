// Example: the liability-inversion argument, §3.1, made runnable.
//
// Hand et al. argued microkernels suffer "liability inversion" (the kernel
// depending on user-level code) and that Xen avoids it. Heiser et al.
// counter with Hand's own Parallax: a storage VM serving other VMs is
// exactly a microkernel-style user-level server, with exactly the same
// failure semantics. This example builds both systems, kills the storage
// service in each, and shows the identical blast radius — then kills Dom0
// to show the one configuration that really is worse.
//
//   ./build/examples/liability_inversion

#include <cstdio>

#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"

namespace {

using minios::ErrOf;

template <typename StackT>
void Probe(const char* label, StackT& stack, size_t guest) {
  stack.RunAsApp(guest, [&] {
    auto& os = stack.guest_os(guest);
    auto pid = os.Spawn("probe");
    const bool syscalls = os.Null(*pid) == 0;
    std::vector<uint8_t> p = {1, 2, 3};
    const bool net = os.NetSend(*pid, 80, 7, p) == 3;
    const bool disk = os.Create(*pid, "probe") >= 0;
    std::printf("  %-28s syscalls:%-4s network:%-4s storage:%-4s\n", label,
                syscalls ? "OK" : "DEAD", net ? "OK" : "DEAD", disk ? "OK" : "DEAD");
  });
}

// Boots a two-guest `StackT`, probes guest 0, applies `kill` and probes
// both guests again.
template <typename StackT, typename KillFn>
void KillAndProbe(const char* heading, const char* killed, typename StackT::Config c,
                  KillFn kill) {
  std::printf("\n--- %s ---\n", heading);
  c.num_guests = 2;
  StackT stack(c);
  Probe("guest0 before", stack, 0);
  (void)kill(stack);
  std::printf("  >>> %s killed <<<\n", killed);
  Probe("guest0 after", stack, 0);
  Probe("guest1 after", stack, 1);
}

}  // namespace

int main() {
  std::printf("liability_inversion: kill the storage service, watch who suffers\n");

  const auto kill_storage = [](auto& stack) { return stack.KillStorage(); };
  KillAndProbe<ustack::UkernelStack>("microkernel: user-level block server dies",
                                     "block server", {}, kill_storage);
  ustack::VmmStack::Config parallax;
  parallax.parallax_storage = true;
  KillAndProbe<ustack::VmmStack>("VMM: Parallax-style storage VM dies",
                                 "Parallax storage VM", parallax, kill_storage);

  std::printf(
      "\nIdentical semantics: storage gone, everything else intact, in BOTH systems.\n"
      "'Exactly the same situation as if a server fails in an L4-based system' (3.1).\n");

  KillAndProbe<ustack::VmmStack>("VMM without disaggregation: the super-VM (Dom0) dies", "Dom0",
                                 {}, [](ustack::VmmStack& stack) { return stack.KillDom0(); });
  std::printf(
      "\nWith drivers AND storage colocated in Dom0, one failure is a system-wide I/O\n"
      "outage — the 'centralized super-VM ... single point of failure' of section 2.2.\n");
  return 0;
}
