// Integration tests: full microkernel and VMM systems booting MiniOS guests,
// running workloads, failure injection (the liability-inversion experiment),
// and the split-driver receive modes.

#include <gtest/gtest.h>

#include "src/os/netstack.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using minios::ErrOf;
using minios::SyscallRet;
using ukvm::Err;
using ukvm::ProcessId;

// --- Microkernel stack ---------------------------------------------------------

TEST(UkernelStack, BootsAndRunsMixedWorkload) {
  ustack::UkernelStack stack;
  ASSERT_TRUE(stack.guest(0).booted);
  uwork::WireHost wire(stack.machine(), stack.nic());
  uwork::WorkloadResult result;
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    result = uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
  }), Err::kNone);
  EXPECT_DOUBLE_EQ(result.SuccessRate(), 1.0);
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 50u);  // the mixed workload's sends
}

TEST(UkernelStack, SyscallsGoThroughIpc) {
  ustack::UkernelStack stack;
  auto& ledger = stack.machine().ledger();
  const uint64_t calls_before = ledger.StatsFor("l4.ipc.call").count;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(stack.guest_os(0).Null(*pid), 0);
    }
  });
  // Each syscall is exactly one IPC call (plus its reply).
  EXPECT_EQ(ledger.StatsFor("l4.ipc.call").count - calls_before, 10u);
}

TEST(UkernelStack, InboundPacketsReachGuest) {
  ustack::UkernelStack stack;
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  uwork::WorkloadResult recv;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 8);
    recv = uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 8,
                                /*timeout=*/1'000'000'000ull);
  });
  EXPECT_EQ(recv.ops_succeeded, 8u);
}

TEST(UkernelStack, TwoGuestsAreIsolated) {
  ustack::UkernelStack::Config config;
  config.num_guests = 2;
  ustack::UkernelStack stack(config);
  ASSERT_TRUE(stack.guest(0).booted);
  ASSERT_TRUE(stack.guest(1).booted);

  // Guest 0 writes a file; guest 1 must not see it (separate disk slices).
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("a");
    const SyscallRet fd = stack.guest_os(0).Create(*pid, "secret");
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data = {1, 2, 3};
    EXPECT_EQ(stack.guest_os(0).Write(*pid, fd, data), 3);
  });
  stack.RunAsApp(1, [&] {
    auto pid = stack.guest_os(1).Spawn("b");
    EXPECT_LT(stack.guest_os(1).Open(*pid, "secret"), 0);
  });
}

// The storage service's death breaks storage only, on either stack.
template <typename StackT>
void ExpectStorageKillBreaksOnlyStorage(StackT& stack) {
  uwork::WireHost wire(stack.machine(), stack.nic());
  ASSERT_EQ(stack.KillStorage(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    // Pure-CPU syscalls still work...
    EXPECT_EQ(os.Null(*pid), 0);
    // ...networking still works...
    std::vector<uint8_t> p = {1};
    EXPECT_EQ(os.NetSend(*pid, 80, 7, p), 1);
    // ...but storage is dead.
    EXPECT_EQ(ErrOf(os.Create(*pid, "f")), Err::kDead);
  });
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 1u);
}

TEST(UkernelStack, KillingBlockServerOnlyBreaksStorage) {
  ustack::UkernelStack stack;
  ExpectStorageKillBreaksOnlyStorage(stack);
}

TEST(UkernelStack, KillingNetServerOnlyBreaksNetworking) {
  ustack::UkernelStack stack;
  ASSERT_EQ(stack.KillNetService(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    EXPECT_EQ(os.Null(*pid), 0);
    std::vector<uint8_t> p = {1};
    EXPECT_EQ(ErrOf(os.NetSend(*pid, 80, 7, p)), Err::kDead);
    // Storage still fine.
    EXPECT_GE(os.Create(*pid, "f"), 0);
  });
}

TEST(UkernelStack, KillingOneGuestSparesTheOther) {
  ustack::UkernelStack::Config config;
  config.num_guests = 2;
  ustack::UkernelStack stack(config);
  ASSERT_EQ(stack.KillGuest(0), Err::kNone);
  stack.RunAsApp(1, [&] {
    auto& os = stack.guest_os(1);
    auto pid = os.Spawn("survivor");
    EXPECT_EQ(os.Null(*pid), 0);
    EXPECT_GE(os.Create(*pid, "still-alive"), 0);
  });
}

TEST(UkernelStack, DeadGuestSyscallsFail) {
  ustack::UkernelStack stack;
  auto pid = stack.guest_os(0).Spawn("app");
  ASSERT_EQ(stack.KillGuest(0), Err::kNone);
  EXPECT_EQ(ErrOf(stack.guest_os(0).Null(*pid)), Err::kDead);
}

// --- VMM stack --------------------------------------------------------------------

TEST(VmmStack, BootsAndRunsMixedWorkload) {
  ustack::VmmStack stack;
  ASSERT_TRUE(stack.guest(0).booted);
  uwork::WireHost wire(stack.machine(), stack.nic());
  uwork::WorkloadResult result;
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    result = uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
  }), Err::kNone);
  EXPECT_DOUBLE_EQ(result.SuccessRate(), 1.0);
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 50u);
}

TEST(VmmStack, InboundPacketsArriveViaPageFlip) {
  ustack::VmmStack stack;  // default: page-flip rx
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  uwork::WorkloadResult recv;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 8);
    recv = uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 8, 1'000'000'000ull);
  });
  EXPECT_EQ(recv.ops_succeeded, 8u);
  // Page flips really happened, one per packet.
  EXPECT_GE(stack.machine().counters().Get("xen.page_flips"), 8u);
}

TEST(VmmStack, InboundPacketsArriveViaGrantCopy) {
  ustack::VmmStack::Config config;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  uwork::WorkloadResult recv;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 8);
    recv = uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 8, 1'000'000'000ull);
  });
  EXPECT_EQ(recv.ops_succeeded, 8u);
  EXPECT_EQ(stack.machine().counters().Get("xen.page_flips"), 0u);
  EXPECT_GE(stack.machine().ledger().StatsFor("xen.gnttab.copy").count, 8u);
}

TEST(VmmStack, PayloadIntegrityThroughSplitDrivers) {
  ustack::VmmStack stack;
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 333, 50 * hwsim::kCyclesPerUs, 1);
    stack.machine().RunFor(1000 * hwsim::kCyclesPerUs);
    std::vector<uint8_t> buf(2048);
    const SyscallRet n = os.NetRecv(*pid, 40, buf);
    ASSERT_EQ(n, 333);
    for (uint32_t i = 0; i < 333; ++i) {
      ASSERT_EQ(buf[i], uwork::WireHost::PatternByte(0, i)) << "byte " << i;
    }
  });
}

TEST(VmmStack, FastSyscallPathUsedByDefault) {
  ustack::VmmStack stack;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(stack.guest_os(0).Null(*pid), 0);
    }
  });
  uvmm::Domain* dom = stack.hv().FindDomain(stack.guest(0).domain);
  EXPECT_GE(dom->syscalls_fast, 5u);
}

TEST(VmmStack, GlibcSegmentsForceReflectedSyscalls) {
  ustack::VmmStack stack;
  ASSERT_EQ(stack.guest_port(0).LoadGlibcStyleSegments(), Err::kNone);
  uvmm::Domain* dom = stack.hv().FindDomain(stack.guest(0).domain);
  const uint64_t reflected_before = dom->syscalls_reflected;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(stack.guest_os(0).Null(*pid), 0);
    }
  });
  EXPECT_EQ(dom->syscalls_reflected - reflected_before, 5u);
}

TEST(VmmStack, KillingParallaxOnlyBreaksStorage) {
  ustack::VmmStack::Config config;
  config.parallax_storage = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.storage_domain(), stack.dom0());
  ExpectStorageKillBreaksOnlyStorage(stack);
}

TEST(VmmStack, FullyDisaggregatedSurvivesDriverDeathsIndependently) {
  // Driver domains for both net and storage: the Xen configuration that is
  // structurally a microkernel multiserver system.
  ustack::VmmStack::Config config;
  config.parallax_storage = true;
  config.net_driver_domain = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.net_domain(), stack.dom0());
  ASSERT_NE(stack.storage_domain(), stack.dom0());
  ASSERT_TRUE(stack.guest(0).booted);

  // Kill only the network driver VM.
  ASSERT_EQ(stack.KillNetService(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("probe");
    EXPECT_EQ(os.Null(*pid), 0);
    std::vector<uint8_t> p = {1};
    EXPECT_EQ(ErrOf(os.NetSend(*pid, 80, 7, p)), Err::kDead);
    EXPECT_GE(os.Create(*pid, "still-works"), 0);  // storage VM unaffected
  });
  // Dom0 itself is still alive too.
  EXPECT_TRUE(stack.hv().DomainAlive(stack.dom0()));
}

TEST(VmmStack, NetDriverDomainCarriesTraffic) {
  ustack::VmmStack::Config config;
  config.net_driver_domain = true;
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("tx");
    (void)uwork::RunUdpSend(stack.machine(), stack.guest_os(0), *pid, 80, 128, 5);
  });
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 5u);
  // The driver-domain CPU, not Dom0's, carried the backend work.
  EXPECT_GT(stack.machine().accounting().CyclesOf(stack.net_domain()), 0u);
}

TEST(VmmStack, KillingDom0TakesDownAllIo) {
  // The super-VM single point of failure (§2.2): without Parallax, Dom0
  // hosts both drivers; its death kills network AND storage for everyone.
  ustack::VmmStack stack;
  ASSERT_EQ(stack.KillDom0(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    // CPU-only syscalls survive (the fast trap gate does not touch Dom0).
    EXPECT_EQ(os.Null(*pid), 0);
    std::vector<uint8_t> p = {1};
    EXPECT_EQ(ErrOf(os.NetSend(*pid, 80, 7, p)), Err::kDead);
    EXPECT_EQ(ErrOf(os.Create(*pid, "f")), Err::kDead);
  });
}

TEST(VmmStack, KillingOneGuestSparesTheOther) {
  ustack::VmmStack::Config config;
  config.num_guests = 2;
  ustack::VmmStack stack(config);
  ASSERT_TRUE(stack.guest(1).booted);
  ASSERT_EQ(stack.KillGuest(0), Err::kNone);
  stack.RunAsApp(1, [&] {
    auto& os = stack.guest_os(1);
    auto pid = os.Spawn("survivor");
    EXPECT_EQ(os.Null(*pid), 0);
    EXPECT_GE(os.Create(*pid, "alive"), 0);
  });
}

TEST(VmmStack, GuestsHaveIsolatedDiskSlices) {
  ustack::VmmStack::Config config;
  config.num_guests = 2;
  ustack::VmmStack stack(config);
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("a");
    const SyscallRet fd = stack.guest_os(0).Create(*pid, "secret");
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data = {7};
    EXPECT_EQ(stack.guest_os(0).Write(*pid, fd, data), 1);
  });
  stack.RunAsApp(1, [&] {
    auto pid = stack.guest_os(1).Spawn("b");
    EXPECT_LT(stack.guest_os(1).Open(*pid, "secret"), 0);
  });
}

TEST(VmmStack, TxPacketsFlowThroughDom0) {
  ustack::VmmStack stack;
  uwork::WireHost wire(stack.machine(), stack.nic());
  const uint64_t maps_before = stack.machine().ledger().StatsFor("xen.gnttab.map").count;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("tx");
    (void)uwork::RunUdpSend(stack.machine(), stack.guest_os(0), *pid, 80, 256, 10);
  });
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 10u);
  // Every TX packet was grant-mapped by netback (zero-copy TX).
  EXPECT_GE(stack.machine().ledger().StatsFor("xen.gnttab.map").count - maps_before, 10u);
}

// --- Service restart (multiserver recovery) -------------------------------------

// A restarted storage service serves again, and a file written before the
// kill survives it, on either stack.
template <typename StackT>
void ExpectStorageRestartRestoresServiceAndData(StackT& stack) {
  ukvm::ProcessId pid;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    pid = *os.Spawn("app");
    const SyscallRet fd = os.Create(pid, "precious");
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data = {9, 8, 7};
    ASSERT_EQ(os.Write(pid, fd, data), 3);
    ASSERT_EQ(os.Close(pid, fd), 0);
  });

  ASSERT_EQ(stack.KillStorage(), Err::kNone);
  stack.RunAsApp(0, [&] {
    EXPECT_EQ(ErrOf(stack.guest_os(0).Open(pid, "precious")), Err::kDead);
  });

  ASSERT_EQ(stack.RestartStorage(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    const SyscallRet fd = os.Open(pid, "precious");
    ASSERT_GE(fd, 0);  // service back AND data survived the server crash
    std::vector<uint8_t> back(3);
    EXPECT_EQ(os.Read(pid, fd, back), 3);
    EXPECT_EQ(back, (std::vector<uint8_t>{9, 8, 7}));
  });
}

TEST(UkernelStack, BlockServerRestartRestoresServiceAndData) {
  ustack::UkernelStack stack;
  ExpectStorageRestartRestoresServiceAndData(stack);
}

TEST(UkernelStack, NetServerRestartRestoresTraffic) {
  ustack::UkernelStack stack;
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  ASSERT_EQ(stack.KillNetService(), Err::kNone);
  ASSERT_EQ(stack.RestartNetService(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("tx");
    std::vector<uint8_t> p = {1, 2};
    EXPECT_EQ(os.NetSend(*pid, 80, 7, p), 2);
    // Inbound traffic too: the kill edge forgot the dead server's rx
    // buffers, and the stack-owned route still names the guest.
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 8);
    const uwork::WorkloadResult recv = uwork::RunUdpReceive(
        stack.machine(), os, *pid, 40, 8, /*timeout=*/1'000'000'000ull);
    EXPECT_EQ(recv.ops_succeeded, 8u);
  });
  stack.machine().RunUntilIdle();
  EXPECT_EQ(wire.packets_received(), 1u);
}

TEST(UkernelStack, RestartingALiveServerLeavesNoOldInstance) {
  ustack::UkernelStack stack;
  const ukvm::DomainId old_blk = stack.block_server().task();
  const ukvm::DomainId old_net = stack.net_server().task();
  ASSERT_EQ(stack.RestartStorage(), Err::kNone);
  ASSERT_EQ(stack.RestartNetService(), Err::kNone);
  EXPECT_FALSE(stack.kernel().TaskAlive(old_blk));
  EXPECT_FALSE(stack.kernel().TaskAlive(old_net));
  EXPECT_TRUE(stack.kernel().TaskAlive(stack.block_server().task()));
  EXPECT_TRUE(stack.kernel().TaskAlive(stack.net_server().task()));
  EXPECT_EQ(stack.ProbeStorageService(), Err::kNone);
  EXPECT_EQ(stack.ProbeNetService(), Err::kNone);
}

TEST(VmmStack, ParallaxRestartRestoresServiceAndData) {
  ustack::VmmStack::Config config;
  config.parallax_storage = true;
  ustack::VmmStack stack(config);
  ExpectStorageRestartRestoresServiceAndData(stack);
}

TEST(VmmStack, RestartingLiveParallaxLeavesNoOldInstance) {
  ustack::VmmStack::Config config;
  config.parallax_storage = true;
  ustack::VmmStack stack(config);
  const uint64_t free_before = stack.machine().memory().free_frames();
  for (int i = 0; i < 2; ++i) {
    const ukvm::DomainId old = stack.storage_domain();
    ASSERT_EQ(stack.RestartStorage(), Err::kNone);
    EXPECT_FALSE(stack.hv().DomainAlive(old));
    EXPECT_NE(stack.storage_domain(), old);
    // The old VM's frames came back before the new VM took its own.
    EXPECT_EQ(stack.machine().memory().free_frames(), free_before) << "restart " << i;
  }
  EXPECT_EQ(stack.ProbeStorageService(), Err::kNone);
}

TEST(VmmStack, Dom0HostedStorageCannotRestartAfterDom0Dies) {
  ustack::VmmStack stack;  // storage inside Dom0
  ASSERT_EQ(stack.KillDom0(), Err::kNone);
  EXPECT_EQ(stack.RestartStorage(), Err::kDead);  // nowhere to put it back
}

// --- Cross-stack comparisons ----------------------------------------------------------

TEST(CrossStack, SameWorkloadSucceedsEverywhere) {
  uwork::WorkloadResult uk_result;
  uwork::WorkloadResult vmm_result;
  {
    ustack::UkernelStack stack;
    uwork::WireHost wire(stack.machine(), stack.nic());
    stack.RunAsApp(0, [&] {
      auto pid = stack.guest_os(0).Spawn("w");
      uk_result = uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
    });
  }
  {
    ustack::VmmStack stack;
    uwork::WireHost wire(stack.machine(), stack.nic());
    stack.RunAsApp(0, [&] {
      auto pid = stack.guest_os(0).Spawn("w");
      vmm_result = uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
    });
  }
  EXPECT_DOUBLE_EQ(uk_result.SuccessRate(), 1.0);
  EXPECT_DOUBLE_EQ(vmm_result.SuccessRate(), 1.0);
  EXPECT_EQ(uk_result.ops_attempted, vmm_result.ops_attempted);
}

TEST(CrossStack, WireRoutingIsTheSameOnBothStacks) {
  // One routing table on both stacks: a packet routed to a dead guest is
  // dropped, and an unrouted one goes to the first attached guest. The
  // unrouted packet here is malformed (its length field overruns the
  // frame) but starts with the dead guest's port.
  const std::vector<uint8_t> routed = minios::BuildPacket(40, 9, std::vector<uint8_t>(16));
  std::vector<uint8_t> malformed = routed;
  malformed[4] = 0xff;
  {
    ustack::UkernelStack::Config config;
    config.num_guests = 2;
    ustack::UkernelStack stack(config);
    stack.RouteWirePort(40, 1);
    ASSERT_EQ(stack.KillGuest(1), Err::kNone);
    stack.nic().InjectPacket(routed);
    stack.nic().InjectPacket(malformed);
    stack.machine().RunUntilIdle();
    EXPECT_EQ(stack.net_server().rx_dropped(), 1u);
    EXPECT_EQ(stack.net_server().rx_forwarded(), 1u);
  }
  {
    ustack::VmmStack::Config config;
    config.num_guests = 2;
    ustack::VmmStack stack(config);
    stack.RouteWirePort(40, 1);
    ASSERT_EQ(stack.KillGuest(1), Err::kNone);
    stack.nic().InjectPacket(routed);
    stack.nic().InjectPacket(malformed);
    stack.machine().RunUntilIdle();
    EXPECT_EQ(stack.netback().rx_dropped(), 1u);
    EXPECT_EQ(stack.netback().rx_delivered(), 1u);
  }
}

// A process that ends releases the ports it bound, whether it exits or the
// program attached to it completes, so a later process can bind them again.
void ExpectEndedProcessesReleaseTheirPorts(minios::Os& os) {
  const ProcessId exiting = *os.Spawn("exiting");
  ASSERT_EQ(os.NetBind(exiting, 40), 0);
  ASSERT_EQ(os.Exit(exiting, 0), 0);
  EXPECT_EQ(os.NetBind(*os.Spawn("after-exit"), 40), 0);

  const ProcessId program = *os.Spawn("program");
  ASSERT_EQ(os.AttachProgram(program,
                             [&] {
                               EXPECT_EQ(os.NetBind(program, 41), 0);
                               return true;
                             }),
            Err::kNone);
  EXPECT_EQ(os.RunPrograms(), 1u);
  EXPECT_EQ(os.NetBind(*os.Spawn("after-program"), 41), 0);
}

TEST(CrossStack, EndedProcessesReleaseTheirPorts) {
  {
    SCOPED_TRACE("native");
    ustack::NativeStack stack;
    ExpectEndedProcessesReleaseTheirPorts(stack.os());
  }
  {
    SCOPED_TRACE("ukernel");
    ustack::UkernelStack stack;
    stack.RunAsApp(0, [&] { ExpectEndedProcessesReleaseTheirPorts(stack.guest_os(0)); });
  }
  {
    SCOPED_TRACE("vmm");
    ustack::VmmStack stack;
    stack.RunAsApp(0, [&] { ExpectEndedProcessesReleaseTheirPorts(stack.guest_os(0)); });
  }
}

TEST(CrossStack, BothStacksCrossDomainsHeavily) {
  // The E4 claim, as a coarse invariant: both systems perform the same
  // order of magnitude of IPC-like crossings for the same workload.
  uint64_t uk_crossings = 0;
  uint64_t vmm_crossings = 0;
  {
    ustack::UkernelStack stack;
    uwork::WireHost wire(stack.machine(), stack.nic());
    const auto before = stack.machine().ledger().Snapshot();
    stack.RunAsApp(0, [&] {
      auto pid = stack.guest_os(0).Spawn("w");
      (void)uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
    });
    uk_crossings = ukvm::DiffSnapshots(before, stack.machine().ledger().Snapshot()).IpcLikeCount();
  }
  {
    ustack::VmmStack stack;
    uwork::WireHost wire(stack.machine(), stack.nic());
    const auto before = stack.machine().ledger().Snapshot();
    stack.RunAsApp(0, [&] {
      auto pid = stack.guest_os(0).Spawn("w");
      (void)uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80);
    });
    vmm_crossings =
        ukvm::DiffSnapshots(before, stack.machine().ledger().Snapshot()).IpcLikeCount();
  }
  EXPECT_GT(uk_crossings, 500u);
  EXPECT_GT(vmm_crossings, 500u);
  EXPECT_LT(vmm_crossings, uk_crossings * 10);
  EXPECT_LT(uk_crossings, vmm_crossings * 10);
}

// --- Two vCPUs on both service stacks ---------------------------------------------------

// What one two-vCPU run observed: its workload totals and its end state.
struct TwoVcpuRun {
  uint64_t ops_attempted = 0;
  uint64_t ops_succeeded = 0;
  uint64_t now = 0;
  uint64_t ipis_sent = 0;
  std::vector<std::pair<ukvm::DomainId, uint64_t>> cycles_by_domain;
  size_t violations = 0;
  bool operator==(const TwoVcpuRun&) const = default;
};

// num_vcpus = 2 arms the TLB shootdown protocol on a whole stack: the
// mixed workload, a storage restart, then file churn through the new
// storage service.
template <typename StackT>
TwoVcpuRun RunMixedRestartChurnOnTwoVcpus() {
  typename StackT::Config config;
  config.num_vcpus = 2;
  StackT stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  TwoVcpuRun run;
  const auto add = [&run](const uwork::WorkloadResult& r) {
    run.ops_attempted += r.ops_attempted;
    run.ops_succeeded += r.ops_succeeded;
  };
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("mixed");
    add(uwork::RunMixedWorkload(stack.machine(), stack.guest_os(0), *pid, 80));
  });
  EXPECT_EQ(stack.RestartStorage(), Err::kNone);
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("churn");
    add(uwork::RunFileChurn(stack.machine(), stack.guest_os(0), *pid, 8, 2048, "c"));
  });
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("two-vcpus");
  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  run.violations = stack.auditor()->violation_count();
  run.now = stack.machine().Now();
  run.ipis_sent = stack.machine().shootdown_stats().ipis_sent;
  run.cycles_by_domain = stack.machine().accounting().ByDomain();
  return run;
}

template <typename StackT>
TwoVcpuRun ExpectTwoVcpuRunCleanAndDeterministic() {
  const TwoVcpuRun first = RunMixedRestartChurnOnTwoVcpus<StackT>();
  EXPECT_GT(first.ops_attempted, 0u);
  EXPECT_EQ(first.ops_succeeded, first.ops_attempted);
  EXPECT_EQ(first.violations, 0u);
  EXPECT_TRUE(RunMixedRestartChurnOnTwoVcpus<StackT>() == first) << "nondeterministic run";
  return first;
}

TEST(CrossStack, TwoVcpuStacksRunCleanAndDeterministic) {
  {
    SCOPED_TRACE("ukernel");
    ExpectTwoVcpuRunCleanAndDeterministic<ustack::UkernelStack>();
  }
  {
    SCOPED_TRACE("vmm");
    // The VMM's grant unmaps and page-table updates revoke translations,
    // so its second vCPU takes shootdown IPIs.
    EXPECT_GT(ExpectTwoVcpuRunCleanAndDeterministic<ustack::VmmStack>().ipis_sent, 0u);
  }
}

// --- Portability sweep (E6) ------------------------------------------------------------

class PlatformSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PlatformSweep, UkernelStackRunsUnmodifiedEverywhere) {
  const hwsim::Platform platform = hwsim::AllPlatforms()[GetParam()];
  ustack::UkernelStack::Config config;
  config.platform = platform;
  ustack::UkernelStack stack(config);
  ASSERT_TRUE(stack.guest(0).booted) << platform.name;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    auto result = uwork::RunFileChurn(stack.machine(), stack.guest_os(0), *pid, 2, 1024, "p");
    EXPECT_DOUBLE_EQ(result.SuccessRate(), 1.0) << platform.name;
  });
}

TEST_P(PlatformSweep, VmmStackRunsButFastPathNeedsSegmentation) {
  const hwsim::Platform platform = hwsim::AllPlatforms()[GetParam()];
  ustack::VmmStack::Config config;
  config.platform = platform;
  ustack::VmmStack stack(config);
  ASSERT_TRUE(stack.guest(0).booted) << platform.name;
  stack.RunAsApp(0, [&] {
    auto pid = stack.guest_os(0).Spawn("app");
    EXPECT_EQ(stack.guest_os(0).Null(*pid), 0);
  });
  uvmm::Domain* dom = stack.hv().FindDomain(stack.guest(0).domain);
  if (platform.has_segmentation) {
    EXPECT_GT(dom->syscalls_fast, 0u) << platform.name;
  } else {
    // The x86 trap-gate trick does not port: everything reflects.
    EXPECT_EQ(dom->syscalls_fast, 0u) << platform.name;
    EXPECT_GT(dom->syscalls_reflected, 0u) << platform.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, PlatformSweep,
                         ::testing::Range<size_t>(0, hwsim::AllPlatforms().size()));

}  // namespace
