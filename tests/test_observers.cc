// The machine's observer slot and the one zero-perturbation proof for all
// four observers at once: with the auditor, race detector, flight recorder
// and request tracer armed together, each stack ends at exactly the
// unobserved run's clock, per-domain cycles and crossing ledger. Plus the
// slot's lifetime and routing rules: destroying the auditor empties it, and
// race events reach no one unless race detection is armed.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/check/auditor.h"
#include "src/core/crossings.h"
#include "src/hw/machine.h"
#include "src/hw/observer.h"
#include "src/hw/platform.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ukvm::DomainId;
using ukvm::Err;

// What observation must leave untouched, in comparable form.
struct MachineState {
  uint64_t now = 0;
  std::vector<std::pair<DomainId, uint64_t>> by_domain;
  std::vector<std::tuple<std::string, uint64_t, uint64_t, uint64_t>> mechanisms;
  std::vector<uint64_t> kind_counts;
  uint64_t total_count = 0;
  uint64_t total_cycles = 0;

  bool operator==(const MachineState&) const = default;
};

MachineState Capture(hwsim::Machine& machine) {
  MachineState s;
  s.now = machine.Now();
  s.by_domain = machine.accounting().ByDomain();
  const ukvm::CrossingSnapshot snap = machine.ledger().Snapshot();
  for (const ukvm::MechanismStats& m : snap.mechanisms) {
    s.mechanisms.emplace_back(m.name, m.count, m.cycles, m.bytes);
  }
  s.kind_counts.assign(snap.kind_counts.begin(), snap.kind_counts.end());
  s.total_count = snap.total_count;
  s.total_cycles = snap.total_cycles;
  return s;
}

// Arms all four observers, or none.
template <typename Config>
Config Observed(bool all) {
  Config config;
  config.audit = all;
  config.race_detect = all;
  config.trace.enabled = all;
  config.request_trace.enabled = all;
  return config;
}

// With everything armed, every observer must actually have worked (no
// vacuous pass) and found nothing wrong.
template <typename Stack>
void ExpectAllObserversBusyAndClean(Stack& stack) {
  ucheck::Auditor* auditor = stack.auditor();
  ASSERT_NE(auditor, nullptr);
  ASSERT_NE(auditor->race(), nullptr);
  EXPECT_EQ(stack.machine().observer(), auditor);
  EXPECT_EQ(stack.machine().race_observer(), auditor);
  auditor->Checkpoint("all-observers");
  for (const std::string& report : auditor->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_GT(auditor->lint().events_observed(), 0u);
  EXPECT_GT(auditor->race()->stats().releases, 0u);
  EXPECT_GT(stack.machine().tracer().events_recorded(), 0u);
  EXPECT_GT(stack.machine().reqtrace().requests_started(), 0u);
  EXPECT_TRUE(stack.machine().reqtrace().Lint().clean());
}

MachineState RunNative(bool all) {
  ustack::NativeStack stack(Observed<ustack::NativeStack::Config>(all));
  auto pid = stack.os().Spawn("app");
  uwork::RunNullSyscalls(stack.machine(), stack.os(), *pid, 40);
  uwork::RunMixedWorkload(stack.machine(), stack.os(), *pid, 40);
  stack.machine().RunUntilIdle();
  MachineState state = Capture(stack.machine());
  if (all) {
    ExpectAllObserversBusyAndClean(stack);
  }
  return state;
}

MachineState RunUkernel(bool all) {
  ustack::UkernelStack stack(Observed<ustack::UkernelStack::Config>(all));
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  EXPECT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 40);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 4, 1'000'000'000ull);
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  MachineState state = Capture(stack.machine());
  if (all) {
    ExpectAllObserversBusyAndClean(stack);
  }
  return state;
}

MachineState RunVmm(bool all) {
  ustack::VmmStack stack(Observed<ustack::VmmStack::Config>(all));
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  EXPECT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 40);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 4, 1'000'000'000ull);
  }), Err::kNone);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x6B);
  std::vector<uint8_t> back(front.block_size(), 0);
  EXPECT_EQ(front.Write(5, 1, block), Err::kNone);
  EXPECT_EQ(front.Read(5, 1, back), Err::kNone);
  stack.machine().RunUntilIdle();
  MachineState state = Capture(stack.machine());
  if (all) {
    ExpectAllObserversBusyAndClean(stack);
  }
  return state;
}

TEST(ObserverSlot, AllObserversTogetherLeaveNativeUnperturbed) {
  EXPECT_TRUE(RunNative(false) == RunNative(true));
}

TEST(ObserverSlot, AllObserversTogetherLeaveUkernelUnperturbed) {
  EXPECT_TRUE(RunUkernel(false) == RunUkernel(true));
}

TEST(ObserverSlot, AllObserversTogetherLeaveVmmUnperturbed) {
  EXPECT_TRUE(RunVmm(false) == RunVmm(true));
}

TEST(ObserverSlot, DestroyingAuditorEmptiesSlot) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024);
  hwsim::PageTable space(machine);
  {
    ucheck::Auditor::Options opts;
    opts.race_detect = true;
    ucheck::Auditor auditor(machine, opts);
    auditor.AttachSpace(DomainId{7}, space);
    EXPECT_EQ(machine.observer(), &auditor);
    EXPECT_EQ(machine.race_observer(), &auditor);
  }
  EXPECT_EQ(machine.observer(), nullptr);
  EXPECT_EQ(machine.race_observer(), nullptr);

  // Every reporting site now finds the slot empty, and the machine keeps
  // running without the auditor.
  auto frame = machine.memory().AllocFrame(DomainId{7});
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(space.Map(0x1000'0000, *frame, {true, true}), Err::kNone);
  machine.cpu().SwitchAddressSpace(&space);
  EXPECT_TRUE(machine.cpu().Translate(0x1000'0000, false, false).ok());
  machine.NotifyDmaTarget(machine.memory().FrameBase(*frame), /*to_memory=*/true);
  EXPECT_EQ(space.Unmap(0x1000'0000), Err::kNone);
}

TEST(ObserverSlot, RaceEventsReachNoOneWithoutRaceDetect) {
  // The default audit-only configuration: the auditor fills the slot, but
  // the race view stays null, so race call sites skip their key work.
  ustack::VmmStack::Config config;
  config.audit = true;
  config.race_detect = false;
  ustack::VmmStack stack(config);
  ucheck::Auditor* auditor = stack.auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_EQ(auditor->race(), nullptr);
  EXPECT_EQ(stack.machine().observer(), auditor);
  EXPECT_EQ(stack.machine().race_observer(), nullptr);

  // Split-driver traffic that reports race edges when armed: evtchn kicks,
  // ring publishes, grant-shared frame accesses, hypercalls.
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x11);
  ASSERT_EQ(front.Write(0, 1, block), Err::kNone);
  stack.machine().RunUntilIdle();
  EXPECT_EQ(stack.machine().race_observer(), nullptr);

  // A race event handed to the auditor directly is dropped: there is no
  // detector to receive it, and nothing is counted.
  auditor->SharedWrite(DomainId{1}, 42, 0, "test");
  auditor->SharedWrite(DomainId{2}, 42, 0, "test");
  auditor->ContextDead(DomainId{1});
  EXPECT_TRUE(auditor->RingObserve(DomainId{2}, 99, 5));
  auditor->Checkpoint("end");
  EXPECT_EQ(auditor->violation_count(), 0u);
}

}  // namespace
