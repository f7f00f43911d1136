// E5 — liability inversion and fault isolation (table).
//
// Paper §3.1: Hand et al. claimed Xen "avoids liability inversion", yet
// Parallax provides "a critical system service for a set of VMMs" — exactly
// a microkernel user-level server. "The argument is made that a failure of
// the Parallax server only affects its clients — exactly the same situation
// as if a server fails in an L4-based system."
//
// This bench kills each service and reports the blast radius in both
// architectures, plus the super-VM case (Dom0 hosting everything).

#include <cstdio>

#include "src/experiments/table.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"

namespace {

using minios::ErrOf;
using ukvm::Err;

struct Probe {
  bool syscalls = false;
  bool network = false;
  bool storage = false;
};

// Probes what still works for one guest.
template <typename StackT>
Probe ProbeGuest(StackT& stack, size_t guest) {
  Probe probe;
  if (guest >= stack.num_guests()) {
    return probe;
  }
  stack.RunAsApp(guest, [&] {
    auto& os = stack.guest_os(guest);
    auto pid = os.Spawn("probe");
    probe.syscalls = os.Null(*pid) == 0;
    std::vector<uint8_t> p = {1, 2, 3};
    probe.network = os.NetSend(*pid, 80, 7, p) == 3;
    const auto fd = os.Create(*pid, "probe-" + std::to_string(stack.machine().Now() % 100000));
    probe.storage = fd >= 0 && os.Write(*pid, fd, p) == 3;
  });
  return probe;
}

const char* Mark(bool ok) { return ok ? "OK" : "DEAD"; }

// Boots a two-guest `StackT`, applies `kill` and adds what still works.
template <typename StackT, typename KillFn>
void Scenario(uharness::Table& table, const char* arch, const char* scenario,
              typename StackT::Config config, KillFn kill) {
  config.num_guests = 2;
  StackT stack(config);
  kill(stack);
  const Probe g0 = ProbeGuest(stack, 0);
  const Probe g1 = ProbeGuest(stack, 1);
  table.AddRow({arch, scenario, Mark(g0.syscalls), Mark(g0.network), Mark(g0.storage),
                Mark(g1.syscalls && g1.network && g1.storage)});
}

ustack::VmmStack::Config VmmConfig(bool parallax, bool net_driver_domain = false) {
  ustack::VmmStack::Config config;
  config.parallax_storage = parallax;
  config.net_driver_domain = net_driver_domain;
  return config;
}

}  // namespace

int main() {
  uharness::PrintHeading("E5", "failure blast radius: kill a service, probe every guest");

  uharness::Table table("what still works after the kill (guest 0 probes; guest 1 summary)",
                        {"architecture", "scenario", "g0 syscalls", "g0 network", "g0 storage",
                         "g1 all"});

  using ustack::UkernelStack;
  using ustack::VmmStack;
  const auto nothing = [](auto&) {};
  const auto kill_storage = [](auto& s) { (void)s.KillStorage(); };
  const auto kill_net = [](auto& s) { (void)s.KillNetService(); };
  const auto kill_guest0 = [](auto& s) { (void)s.KillGuest(0); };

  Scenario<UkernelStack>(table, "ukernel", "baseline (nothing killed)", {}, nothing);
  Scenario<VmmStack>(table, "vmm+parallax", "baseline (nothing killed)", VmmConfig(/*parallax=*/true),
                     nothing);

  // Storage-service death: the §3.1 comparison.
  Scenario<UkernelStack>(table, "ukernel", "kill block server", {}, kill_storage);
  Scenario<VmmStack>(table, "vmm+parallax", "kill Parallax storage VM",
                     VmmConfig(/*parallax=*/true),
                     kill_storage);

  // Network-driver death. Full disaggregation (net driver VM + Parallax
  // storage VM, Dom0 empty): killing the net driver VM must spare storage —
  // the VMM rebuilt as a multiserver system.
  Scenario<UkernelStack>(table, "ukernel", "kill net driver server", {}, kill_net);
  Scenario<VmmStack>(table, "vmm fully disaggregated", "kill net driver VM",
                     VmmConfig(/*parallax=*/true, /*net_driver_domain=*/true), kill_net);

  // The super-VM single point of failure (§2.2): Dom0 hosts drivers AND
  // (without Parallax) the storage backend.
  Scenario<VmmStack>(table, "vmm (no parallax)", "kill Dom0 (super-VM)", {},
                     [](VmmStack& s) { (void)s.KillDom0(); });

  // A guest dying must never affect the other.
  Scenario<UkernelStack>(table, "ukernel", "kill guest 0", {}, kill_guest0);
  Scenario<VmmStack>(table, "vmm", "kill guest 0", {}, kill_guest0);

  table.Print();
  std::printf(
      "\nShape check: storage-service death looks IDENTICAL in both architectures —\n"
      "storage dead, everything else alive (the paper: 'exactly the same situation as\n"
      "if a server fails in an L4-based system'). Only the super-VM configuration\n"
      "(everything in Dom0) turns one failure into a system-wide I/O outage.\n");
  uharness::WriteJsonIfRequested("E5");
  return 0;
}
