// E22 causal request tracing tests: deterministic byte-identical exports on
// all three stacks, zero simulated-time perturbation, lint-clean DAGs on
// stock protocols, mutation self-tests (a dropped ring-slot stash must flag
// an orphaned handoff; a dropped upcall adoption must leave the request
// unparented), and recovery attribution — a backend killed mid-write must
// surface recovery.* phases on the replayed request's critical path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/reqtrace.h"
#include "src/experiments/trace_export.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/task.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ukvm::Err;

// --- Unit-level: core tracer semantics ------------------------------------------

TEST(ReqTrace, DisabledMintsNothing) {
  ukvm::RequestTrace rt;
  const uint32_t name = rt.InternName("x");
  const ukvm::ReqTraceRef ref = rt.BeginRequest(name, ukvm::DomainId{1});
  EXPECT_FALSE(ref.valid());
  rt.EndRequest(ref);  // no-op, must not crash
  EXPECT_EQ(rt.requests_started(), 0u);
  EXPECT_EQ(rt.Lint().completed, 0u);
}

TEST(ReqTrace, CriticalPathPrefersDeepestNode) {
  ukvm::RequestTrace rt;
  uint64_t now = 0;
  rt.SetTimeSource([&now] { return now; });
  ukvm::ReqTraceConfig config;
  config.enabled = true;
  rt.Enable(config);
  const uint32_t origin = rt.InternName("origin");
  const uint32_t dev = rt.InternName("dev");

  const ukvm::ReqTraceRef ref = rt.BeginRequest(origin, ukvm::DomainId{1});
  ASSERT_TRUE(ref.valid());
  // Device leaf covers [100, 400); origin-only time is the rest.
  rt.AddLeafTo(ref, dev, ukvm::ReqNodeKind::kDevice, ukvm::DomainId{2}, 100, 400);
  now = 1000;
  rt.EndRequest(ref);

  ASSERT_EQ(rt.slowest().size(), 1u);
  const ukvm::CompletedRequest& req = rt.slowest()[0];
  EXPECT_EQ(req.t1 - req.t0, 1000u);
  EXPECT_TRUE(req.parented);
  // 300 cycles on the device, 700 origin-only => queue bucket.
  EXPECT_EQ(req.breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kDevice)], 300u);
  EXPECT_EQ(req.breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kQueue)], 700u);
  EXPECT_EQ(req.breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kOrigin)], 0u);
}

TEST(ReqTrace, RingStashConsumePairsAppendQueueNode) {
  ukvm::RequestTrace rt;
  uint64_t now = 0;
  rt.SetTimeSource([&now] { return now; });
  ukvm::ReqTraceConfig config;
  config.enabled = true;
  rt.Enable(config);
  const uint32_t origin = rt.InternName("origin");

  const ukvm::ReqTraceRef ref = rt.BeginRequest(origin, ukvm::DomainId{1});
  {
    ukvm::ReqAdoptScope scope(rt, ref);
    rt.RingStash(0x1234, ukvm::RingSide::kRequest, 0);
  }
  now = 50;
  const ukvm::ReqTraceRef got =
      rt.RingConsume(0x1234, ukvm::RingSide::kRequest, 0, ukvm::DomainId{2});
  EXPECT_EQ(got.trace, ref.trace);
  now = 80;
  rt.EndRequest(ref);
  const ukvm::ReqTraceLint lint = rt.Lint();
  EXPECT_EQ(lint.completed, 1u);
  EXPECT_EQ(lint.fully_parented, 1u);
  EXPECT_EQ(lint.orphaned_handoffs, 0u);
  // The queue node covers the slot's [stash, consume] wait.
  ASSERT_EQ(rt.slowest().size(), 1u);
  EXPECT_EQ(rt.slowest()[0].breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kQueue)], 80u);
}

TEST(ReqTrace, ConsumeInsideStashedWindowWithoutEntryIsOrphan) {
  ukvm::RequestTrace rt;
  uint64_t now = 0;
  rt.SetTimeSource([&now] { return now; });
  ukvm::ReqTraceConfig config;
  config.enabled = true;
  rt.Enable(config);
  const uint32_t origin = rt.InternName("origin");

  // First stash lands at slot 10: the stashed window is dense from there
  // on. Consuming slot 11 with no entry is an orphan (a propagation point
  // was skipped); consuming slot 3 predates the tracer and is benign.
  const ukvm::ReqTraceRef ref = rt.BeginRequest(origin, ukvm::DomainId{1});
  rt.RingStashRef(7, ukvm::RingSide::kRequest, 10, ref);
  rt.RingStashRef(7, ukvm::RingSide::kRequest, 12, ref);
  (void)rt.RingConsume(7, ukvm::RingSide::kRequest, 11, ukvm::DomainId{2});
  EXPECT_EQ(rt.orphaned_handoffs(), 1u);
  (void)rt.RingConsume(7, ukvm::RingSide::kRequest, 3, ukvm::DomainId{2});
  EXPECT_EQ(rt.orphaned_handoffs(), 1u);
}

// --- Stack-level exports ---------------------------------------------------------

struct ReqExport {
  std::string perfetto;
  std::string table;
  std::string report;
  uint64_t sim_cycles = 0;
  ukvm::ReqTraceLint lint;
};

ReqExport HarvestMachine(hwsim::Machine& machine) {
  ReqExport out;
  out.perfetto =
      uharness::RequestTraceJson(machine.reqtrace(), machine.tracer(), hwsim::kCyclesPerUs);
  out.table = uharness::RequestTableJson(machine.reqtrace(), machine.tracer());
  out.report = machine.reqtrace().SlowestReport();
  out.sim_cycles = machine.Now();
  out.lint = machine.reqtrace().Lint();
  return out;
}

ReqExport RunTracedVmm(bool request_trace = true) {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = request_trace;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  config.io_batch = 4;
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    (void)os.NetBind(*pid, 40);
    wire.StartStream(40, 512, 20 * hwsim::kCyclesPerUs, 16);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 16, 1'000'000'000ull);
  });
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x5A);
  std::vector<uint8_t> back(front.block_size(), 0);
  for (uint64_t lba = 0; lba < 4; ++lba) {
    EXPECT_EQ(front.Write(lba, 1, block), Err::kNone);
    EXPECT_EQ(front.Read(lba, 1, back), Err::kNone);
  }
  stack.machine().RunUntilIdle();
  return HarvestMachine(stack.machine());
}

ReqExport RunTracedUkernel() {
  ustack::UkernelStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 20);
  });
  stack.machine().RunUntilIdle();
  return HarvestMachine(stack.machine());
}

ReqExport RunTracedNative() {
  ustack::NativeStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  ustack::NativeStack stack(config);
  auto pid = stack.os().Spawn("app");
  uwork::RunMixedWorkload(stack.machine(), stack.os(), *pid, 20);
  stack.machine().RunUntilIdle();
  return HarvestMachine(stack.machine());
}

TEST(ReqTraceE2E, ExportsAreDeterministicAcrossRuns) {
  // Same config, two fresh stacks: byte-identical dumps, on every stack.
  const ReqExport vmm1 = RunTracedVmm();
  const ReqExport vmm2 = RunTracedVmm();
  EXPECT_EQ(vmm1.perfetto, vmm2.perfetto);
  EXPECT_EQ(vmm1.table, vmm2.table);
  EXPECT_EQ(vmm1.report, vmm2.report);
  EXPECT_EQ(vmm1.sim_cycles, vmm2.sim_cycles);

  const ReqExport uk1 = RunTracedUkernel();
  const ReqExport uk2 = RunTracedUkernel();
  EXPECT_EQ(uk1.perfetto, uk2.perfetto);
  EXPECT_EQ(uk1.table, uk2.table);

  const ReqExport nat1 = RunTracedNative();
  const ReqExport nat2 = RunTracedNative();
  EXPECT_EQ(nat1.perfetto, nat2.perfetto);
  EXPECT_EQ(nat1.table, nat2.table);
}

TEST(ReqTraceE2E, TracingDoesNotPerturbSimulatedTime) {
  const ReqExport off = RunTracedVmm(/*request_trace=*/false);
  const ReqExport on = RunTracedVmm(/*request_trace=*/true);
  EXPECT_EQ(off.sim_cycles, on.sim_cycles);
}

TEST(ReqTraceE2E, StockProtocolsLintClean) {
  for (const ReqExport& e : {RunTracedVmm(), RunTracedUkernel(), RunTracedNative()}) {
    EXPECT_GT(e.lint.completed, 0u);
    EXPECT_EQ(e.lint.completed, e.lint.fully_parented);
    EXPECT_EQ(e.lint.orphaned_handoffs, 0u);
    EXPECT_EQ(e.lint.dropped_nodes, 0u);
    EXPECT_DOUBLE_EQ(e.lint.parented_fraction(), 1.0);
  }
}

TEST(ReqTraceE2E, ExportsCarryRequestStructure) {
  const ReqExport vmm = RunTracedVmm();
  EXPECT_NE(vmm.perfetto.find("\"traceEvents\""), std::string::npos);
  // Cross-domain causal edges exported as Perfetto flow pairs.
  EXPECT_NE(vmm.perfetto.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(vmm.perfetto.find("\"ph\":\"f\""), std::string::npos);
  // The per-request table names origins and carries the lint block.
  EXPECT_NE(vmm.table.find("\"lint\""), std::string::npos);
  EXPECT_NE(vmm.table.find("blk.write"), std::string::npos);
  EXPECT_NE(vmm.table.find("critical_path"), std::string::npos);
}

// --- E23 follow-up: origins the E22 cut missed -----------------------------------

TEST(ReqTraceE2E, BareFaultMintsPageFaultOrigin) {
  // A page fault that arrives outside any traced request (a bare TouchPage)
  // must mint its own "l4.pf" origin so the pager protocol parents into the
  // request DAG instead of vanishing.
  hwsim::Machine machine(hwsim::MakeX86Platform(), 16 << 20);
  ukern::Kernel kernel(machine);
  ukvm::ReqTraceConfig config;
  config.enabled = true;
  machine.EnableRequestTracing(config);

  auto pager_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  ASSERT_TRUE(pager_task.ok());
  auto pager = kernel.CreateThread(*pager_task, 255, [&](ukvm::ThreadId, ukern::IpcMessage msg) {
    const hwsim::Vaddr fault_va = msg.regs[1];
    auto frame = machine.memory().AllocFrame(*pager_task);
    EXPECT_TRUE(frame.ok());
    ukern::Task* pt = kernel.FindTask(*pager_task);
    const hwsim::Vaddr src = machine.memory().FrameBase(*frame);
    EXPECT_EQ(pt->space.Map(src, *frame, hwsim::PtePerms{true, true}), Err::kNone);
    kernel.mapdb().AddRoot(*pager_task, pt->space.VpnOf(src), *frame);
    ukern::IpcMessage reply;
    reply.map_items.push_back(
        ukern::MapItem{src, fault_va & ~(machine.memory().page_size() - 1), 1, true, false});
    return reply;
  });
  ASSERT_TRUE(pager.ok());
  auto task = kernel.CreateTask(*pager);
  auto thread = kernel.CreateThread(*task, 100, nullptr);
  ASSERT_TRUE(thread.ok());

  ASSERT_EQ(kernel.TouchPage(*thread, 0x555000, /*write=*/true), Err::kNone);
  const ukvm::ReqTraceLint lint = machine.reqtrace().Lint();
  EXPECT_EQ(lint.completed, 1u);
  EXPECT_EQ(lint.fully_parented, 1u);
  EXPECT_NE(machine.reqtrace().SlowestReport().find("l4.pf"), std::string::npos)
      << machine.reqtrace().SlowestReport();

  // An unresolvable fault abandons its origin rather than completing it.
  auto orphan_task = kernel.CreateTask(ukvm::ThreadId::Invalid());
  auto orphan = kernel.CreateThread(*orphan_task, 100, nullptr);
  EXPECT_EQ(kernel.TouchPage(*orphan, 0x700000, false), Err::kFault);
  EXPECT_EQ(machine.reqtrace().Lint().completed, 1u);
}

TEST(ReqTraceE2E, VmmSyscallPathMintsOrigins) {
  // The VMM port's trap-and-reflect syscall path mints an "os.syscall"
  // origin per guest system call, like the ukernel port already does — the
  // E22 cut left the VMM stack's control path origin-less.
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  // Guest boot mints long blk.write requests; keep enough DAGs that the
  // short syscall requests still appear in the slowest-K table.
  config.request_trace.k_slowest = 64;
  ustack::VmmStack stack(config);
  auto& os = stack.guest_os(0);
  const uint64_t completed_before = stack.machine().reqtrace().Lint().completed;
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    for (int i = 0; i < 8; ++i) {
      (void)os.Null(*pid);
    }
  });
  stack.machine().RunUntilIdle();
  const ukvm::ReqTraceLint lint = stack.machine().reqtrace().Lint();
  // Eight Nulls: at least eight syscall-origin requests completed.
  EXPECT_GE(lint.completed, completed_before + 8);
  EXPECT_EQ(lint.completed, lint.fully_parented);
  const std::string table =
      uharness::RequestTableJson(stack.machine().reqtrace(), stack.machine().tracer());
  EXPECT_NE(table.find("os.syscall"), std::string::npos) << table;
}

// --- Mutation self-tests ---------------------------------------------------------

TEST(ReqTraceMutation, DroppedRingStashFlagsOrphanedHandoff) {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x11);
  stack.machine().reqtrace().TestDropNextRingStash();
  (void)front.Write(0, 1, block);
  stack.machine().RunUntilIdle();
  EXPECT_GT(stack.machine().reqtrace().Lint().orphaned_handoffs, 0u);
}

TEST(ReqTraceMutation, DroppedUpcallAdoptionLeavesRequestUnparented) {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x22);
  stack.machine().reqtrace().TestDropNextChannelAdopt();
  (void)front.Write(0, 1, block);
  stack.machine().RunUntilIdle();
  const ukvm::ReqTraceLint lint = stack.machine().reqtrace().Lint();
  EXPECT_GT(lint.completed, 0u);
  EXPECT_LT(lint.fully_parented, lint.completed);
  EXPECT_LT(lint.parented_fraction(), 1.0);
}

TEST(ReqTraceE2E, EventChannelHandoffParentsRequestDag) {
  // The event-channel table stashes the sending request on every Send; the
  // upcall adopts it as an evtchn.upcall crossing node under the sender's
  // node, so the request stays one connected DAG across the kick.
  ustack::VmmStack::Config config;
  config.request_trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x44);
  const uint64_t completed_before = stack.machine().reqtrace().Lint().completed;
  ASSERT_EQ(front.Write(2, 1, block), Err::kNone);
  stack.machine().RunUntilIdle();

  const ukvm::RequestTrace& rt = stack.machine().reqtrace();
  const ukvm::ReqTraceLint lint = rt.Lint();
  EXPECT_GT(lint.completed, completed_before);
  EXPECT_EQ(lint.fully_parented, lint.completed);
  EXPECT_EQ(lint.orphaned_handoffs, 0u);
  bool adopted = false;
  for (const ukvm::CompletedRequest& req : rt.slowest()) {
    for (const ukvm::ReqNode& node : req.nodes) {
      if (rt.Name(node.name) == "evtchn.upcall") {
        adopted = true;
        EXPECT_TRUE(req.parented);
        EXPECT_EQ(node.kind, ukvm::ReqNodeKind::kCrossing);
        ASSERT_NE(node.parent, ukvm::kReqNoParent);
        EXPECT_LT(node.parent, req.nodes.size());
      }
    }
  }
  EXPECT_TRUE(adopted) << rt.SlowestReport();
}

// --- Recovery attribution --------------------------------------------------------

TEST(ReqTraceRecovery, KilledBackendShowsRecoveryPhasesOnCriticalPath) {
  ustack::VmmStack::Config config;
  config.parallax_storage = true;
  config.trace.enabled = true;
  config.request_trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0xAB);

  // Kill the storage VM while the write is waiting on the ring; the write
  // journals, the restart reconnects and replays it.
  stack.machine().ScheduleAfter(30 * hwsim::kCyclesPerUs, [&] { (void)stack.KillStorage(); });
  const Err err = front.Write(0, 1, block);
  EXPECT_NE(err, Err::kNone);
  stack.machine().RunUntilIdle();
  EXPECT_GT(front.journal().size(), 0u);
  ASSERT_EQ(stack.RestartStorage(), Err::kNone);
  stack.machine().RunUntilIdle();
  EXPECT_EQ(front.journal().size(), 0u);

  // The replayed request completed, lints clean (its severed handoffs were
  // forgiven), and its retained DAG names the recovery phases.
  const ukvm::ReqTraceLint lint = stack.machine().reqtrace().Lint();
  EXPECT_GT(lint.completed, 0u);
  EXPECT_EQ(lint.orphaned_handoffs, 0u);
  EXPECT_EQ(lint.completed, lint.fully_parented);

  const std::string report = stack.machine().reqtrace().SlowestReport();
  EXPECT_NE(report.find("recovery.detect"), std::string::npos) << report;
  EXPECT_NE(report.find("recovery.reconnect"), std::string::npos) << report;
  EXPECT_NE(report.find("recovery.replay"), std::string::npos) << report;

  // And the recovery time dominates the request's breakdown: the e2e
  // histogram saw it, and some retained request charges kRecovery cycles.
  bool recovery_attributed = false;
  for (const ukvm::CompletedRequest& req : stack.machine().reqtrace().slowest()) {
    if (req.breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kRecovery)] > 0) {
      recovery_attributed = true;
    }
  }
  EXPECT_TRUE(recovery_attributed);
}

}  // namespace
