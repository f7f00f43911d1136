// ukvm-race (E20): happens-before core unit tests, ring-discipline mutation
// self-tests, clean runs of all three stacks with the detector armed, and
// the frontend-driven xenbus liveness probe.
//
// A detector that never fires is indistinguishable from one that cannot
// fire: each mutation seeds exactly one protocol bug and asserts exactly
// the intended rule reports it; each clean run drives real split-driver
// traffic and asserts silence plus nonzero detector work.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/check/race.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/hw/observer.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/stacks/xenbus.h"
#include "src/stacks/xenring.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ucheck::RaceDetector;
using ucheck::RaceRule;
using ukvm::DomainId;
using ukvm::Err;
using ustack::RingMutation;
using ustack::XenbusState;

// --- Happens-before core ----------------------------------------------------------

// A bare machine plus detector; accesses and edges are reported directly
// through the detector's race interface, no stack in between.
struct CoreFixture {
  CoreFixture() : machine(hwsim::MakeX86Platform(), 4ull * 1024 * 1024), det(machine) {}

  hwsim::Machine machine;
  RaceDetector det;
  DomainId d1{1};
  DomainId d2{2};
  // An arbitrary shared object (a grant-mapped frame) and sync key.
  uint64_t obj = hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kFrame, 0x42, 1);
  uint64_t key = hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kEvtchn, 2, 7);
};

TEST(RaceCore, UnorderedWritesFire) {
  CoreFixture f;
  f.det.SharedWrite(f.d1, f.obj, 0, "test");
  f.det.SharedWrite(f.d2, f.obj, 0, "test");
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 1u);
  ASSERT_EQ(f.det.violations().size(), 1u);
  EXPECT_EQ(f.det.violations()[0].rule, RaceRule::kUnsyncedSharedAccess);
}

TEST(RaceCore, UnorderedReadAfterWriteFires) {
  CoreFixture f;
  f.det.SharedWrite(f.d1, f.obj, 0, "test");
  f.det.SharedRead(f.d2, f.obj, 0, "test");
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 1u);
}

TEST(RaceCore, UnorderedWriteAfterReadFires) {
  CoreFixture f;
  f.det.SharedRead(f.d1, f.obj, 0, "test");  // no prior writer: silent
  EXPECT_EQ(f.det.violation_count(), 0u);
  f.det.SharedWrite(f.d2, f.obj, 0, "test");  // unordered vs the read
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 1u);
}

TEST(RaceCore, ReleaseAcquireOrdersAccesses) {
  CoreFixture f;
  f.det.SharedWrite(f.d1, f.obj, 0, "test");
  f.det.Release(f.d1, f.key);
  f.det.Acquire(f.d2, f.key);
  f.det.SharedRead(f.d2, f.obj, 0, "test");
  f.det.SharedWrite(f.d2, f.obj, 0, "test");
  EXPECT_EQ(f.det.violation_count(), 0u);
  // And back: d2's write flows to d1 over a second edge.
  f.det.Release(f.d2, f.key);
  f.det.Acquire(f.d1, f.key);
  f.det.SharedRead(f.d1, f.obj, 0, "test");
  EXPECT_EQ(f.det.violation_count(), 0u);
}

TEST(RaceCore, AccessAfterReleaseIsNotCovered) {
  CoreFixture f;
  f.det.Release(f.d1, f.key);
  f.det.SharedWrite(f.d1, f.obj, 0, "test");  // after the release: not in the edge
  f.det.Acquire(f.d2, f.key);
  f.det.SharedRead(f.d2, f.obj, 0, "test");
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 1u);
}

TEST(RaceCore, DeadContextOrdersEverything) {
  CoreFixture f;
  f.det.SharedWrite(f.d1, f.obj, 0, "test");
  // Domain death (revocation shootdown is the real ordering): the survivor
  // may reuse the frame without a reported edge.
  f.det.ContextDead(f.d1);
  f.det.SharedWrite(f.d2, f.obj, 0, "test");
  EXPECT_EQ(f.det.violation_count(), 0u);
}

TEST(RaceCore, DistinctOffsetsDoNotConflict) {
  CoreFixture f;
  f.det.SharedWrite(f.d1, f.obj, 0, "test");
  f.det.SharedWrite(f.d2, f.obj, 1, "test");
  EXPECT_EQ(f.det.violation_count(), 0u);
}

// --- Ring-discipline mutations ----------------------------------------------------

// An auditor with race detection armed: the machine routes race events to
// it, and it forwards them to its detector.
ucheck::Auditor::Options RaceOptions() {
  ucheck::Auditor::Options opts;
  opts.race_detect = true;
  return opts;
}

// A raw ring between two fake domains, deliberately with no event channel:
// in a full stack the evtchn send->upcall edge would order even a mutated
// publish and mask the seeded bug.
struct RingFixture {
  RingFixture()
      : machine(hwsim::MakeX86Platform(), 4ull * 1024 * 1024),
        auditor(machine, RaceOptions()),
        det(*auditor.race()),
        ring(machine, 8) {
    ring.BindRaceEndpoints(DomainId{1}, DomainId{2});
  }

  hwsim::Machine machine;
  ucheck::Auditor auditor;
  RaceDetector& det;
  ustack::XenRing<uint32_t, uint32_t> ring;
};

TEST(RaceMutation, StockProtocolIsSilent) {
  RingFixture f;
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.ring.PushRequest(i));
    auto req = f.ring.PopRequest();
    ASSERT_TRUE(req.has_value());
    ASSERT_TRUE(f.ring.PushResponse(*req + 100));
    ASSERT_TRUE(f.ring.PopResponse().has_value());
  }
  // Batched variants walk the same shadow cells.
  const uint32_t batch[4] = {1, 2, 3, 4};
  ASSERT_EQ(f.ring.PushRequests(batch), 4u);
  ASSERT_EQ(f.ring.PopRequests(4).size(), 4u);
  ASSERT_EQ(f.ring.PushResponses(batch), 4u);
  ASSERT_EQ(f.ring.PopResponses(4).size(), 4u);
  EXPECT_EQ(f.det.violation_count(), 0u);
  const RaceDetector::Stats s = f.det.stats();
  EXPECT_GT(s.ring_publishes, 0u);
  EXPECT_GT(s.ring_observes, 0u);
  EXPECT_GT(s.shared_accesses, 0u);
}

TEST(RaceMutation, SkipPublishFiresExactlyRingRule) {
  RingFixture f;
  f.ring.SetRaceMutation(RingMutation::kSkipPublish);
  ASSERT_TRUE(f.ring.PushRequest(7));  // slot stored, index never published
  ASSERT_TRUE(f.ring.PopRequest().has_value());
  EXPECT_EQ(f.det.RuleCount(RaceRule::kRingReadBeforePublish), 1u);
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 0u);
  // One-shot: the next publish covers the skipped slot too, so stock
  // traffic goes back to silence.
  ASSERT_TRUE(f.ring.PushRequest(8));
  ASSERT_TRUE(f.ring.PopRequest().has_value());
  EXPECT_EQ(f.det.RuleCount(RaceRule::kRingReadBeforePublish), 1u);
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 0u);
}

TEST(RaceMutation, EarlyPublishFiresExactlyUnsyncedRule) {
  RingFixture f;
  f.ring.SetRaceMutation(RingMutation::kEarlyPublish);
  ASSERT_TRUE(f.ring.PushRequest(7));  // index published before the slot store
  ASSERT_TRUE(f.ring.PopRequest().has_value());
  EXPECT_EQ(f.det.RuleCount(RaceRule::kUnsyncedSharedAccess), 1u);
  EXPECT_EQ(f.det.RuleCount(RaceRule::kRingReadBeforePublish), 0u);
  // One-shot: stock traffic after the mutation is silent again.
  ASSERT_TRUE(f.ring.PushRequest(8));
  ASSERT_TRUE(f.ring.PopRequest().has_value());
  EXPECT_EQ(f.det.violation_count(), 1u);
}

TEST(RaceMutation, UnboundRingIsUninstrumented) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 4ull * 1024 * 1024);
  ucheck::Auditor auditor(machine, RaceOptions());
  RaceDetector& det = *auditor.race();
  ustack::XenRing<uint32_t, uint32_t> ring(machine, 8);  // no BindRaceEndpoints
  ring.SetRaceMutation(RingMutation::kSkipPublish);
  ASSERT_TRUE(ring.PushRequest(7));
  ASSERT_TRUE(ring.PopRequest().has_value());
  EXPECT_EQ(det.violation_count(), 0u);
  EXPECT_EQ(det.stats().ring_observes, 0u);
}

// --- Clean runs: the three stacks with the detector armed -------------------------

TEST(RaceCleanRun, VmmStackPageFlipAndBlkTraffic) {
  ustack::VmmStack::Config config;
  config.race_detect = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  ASSERT_NE(stack.auditor()->race(), nullptr);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 50);
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 4, 1'000'000'000ull);
  }), Err::kNone);
  // Block traffic: writes stage payload frames, reads pull them back.
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0xAB);
  std::vector<uint8_t> back(front.block_size(), 0);
  ASSERT_EQ(front.Write(3, 1, block), Err::kNone);
  ASSERT_EQ(front.Read(3, 1, back), Err::kNone);
  EXPECT_EQ(back, block);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  const RaceDetector::Stats s = stack.auditor()->race()->stats();
  EXPECT_GT(s.releases, 0u);
  EXPECT_GT(s.acquires, 0u);
  EXPECT_GT(s.ring_publishes, 0u);
  EXPECT_GT(s.ring_observes, 0u);
  EXPECT_GT(s.shared_accesses, 0u);
  EXPECT_GE(s.contexts, 2u);
}

TEST(RaceCleanRun, VmmStackGrantCopyBatchedPersistent) {
  ustack::VmmStack::Config config;
  config.race_detect = true;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  config.io_batch = 4;
  config.persistent_grants = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(41, 0);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 41), 0);
    wire.StartStream(41, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 41, 4, 1'000'000'000ull);
    uwork::RunUdpSend(stack.machine(), os, *pid, 90, 256, 8);
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  EXPECT_GT(stack.auditor()->race()->stats().ring_publishes, 0u);
}

TEST(RaceCleanRun, UkernelStackWorkloads) {
  ustack::UkernelStack::Config config;
  config.race_detect = true;
  ustack::UkernelStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 50);
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 4, 1'000'000'000ull);
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  // IPC call/reply crossings feed the edge bookkeeping even though the
  // ukernel's block rings are not race-bound.
  EXPECT_GT(stack.auditor()->race()->stats().releases, 0u);
}

TEST(RaceCleanRun, NativeStackWorkloads) {
  ustack::NativeStack::Config config;
  config.race_detect = true;
  config.num_vcpus = 2;  // arm the shootdown protocol's IPI edges
  ustack::NativeStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  uwork::WireHost wire(stack.machine(), stack.nic());
  auto pid = stack.os().Spawn("app");
  ASSERT_TRUE(pid.ok());
  uwork::RunNullSyscalls(stack.machine(), stack.os(), *pid, 50);
  uwork::RunMixedWorkload(stack.machine(), stack.os(), *pid, 80);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
}

// --- Frontend-driven xenbus liveness probe ----------------------------------------

TEST(LivenessProbe, DetectsWedgedBackend) {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;

  // Healthy backend: the zero-block probe is answered immediately.
  ASSERT_EQ(front.ProbeBackend(1'000 * hwsim::kCyclesPerUs), Err::kNone);
  EXPECT_EQ(front.probe_detections(), 0u);
  EXPECT_EQ(front.xenbus().state(), XenbusState::kConnected);

  // Wedged-but-undead backend: alive as a domain, never pumps its ring.
  // Only the frontend can see this — the supervisor's process-liveness
  // probe would still pass.
  stack.blkback().SetWedged(true);
  EXPECT_EQ(front.ProbeBackend(1'000 * hwsim::kCyclesPerUs), Err::kTimedOut);
  EXPECT_EQ(front.probe_detections(), 1u);
  EXPECT_EQ(front.xenbus().state(), XenbusState::kClosing);

  // The detection feeds the same recovery.detect histogram as supervisor
  // detection (E19's decomposition applies unchanged).
  bool saw_detect = false;
  stack.machine().tracer().ForEachHistogram(
      [&](const std::string& name, const ukvm::LogHistogram& h) {
        if (name == "recovery.detect") {
          saw_detect = true;
          EXPECT_GE(h.count(), 1u);
        }
      });
  EXPECT_TRUE(saw_detect);
}

TEST(LivenessProbe, PeriodicProbeDetectsOnceThenStops) {
  ustack::VmmStack stack;
  auto& front = *stack.guest(0).blkfront;

  front.StartLivenessProbe(/*interval_cycles=*/50 * hwsim::kCyclesPerUs,
                           /*timeout_cycles=*/100 * hwsim::kCyclesPerUs);
  stack.machine().RunFor(300 * hwsim::kCyclesPerUs);
  EXPECT_EQ(front.probe_detections(), 0u);  // healthy: every probe answered
  EXPECT_TRUE(front.xenbus().connected());

  stack.blkback().SetWedged(true);
  stack.machine().RunFor(500 * hwsim::kCyclesPerUs);
  // Exactly one detection: OnDetected leaves kConnected, and the prober
  // only issues while the connection believes itself healthy.
  EXPECT_EQ(front.probe_detections(), 1u);
  EXPECT_EQ(front.xenbus().state(), XenbusState::kClosing);

  front.StopLivenessProbe();
  stack.machine().RunFor(200 * hwsim::kCyclesPerUs);
  EXPECT_EQ(front.probe_detections(), 1u);
}

}  // namespace
