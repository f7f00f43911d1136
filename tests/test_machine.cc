// Tests for the Machine: virtual clock, cycle accounting, the event queue,
// trap dispatch, interrupt delivery, segmentation, and the CPU's MMU path.

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/machine.h"
#include "src/hw/segmentation.h"

namespace hwsim {
namespace {

using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;

Machine MakeMachine() { return Machine(MakeX86Platform(), 1 << 20); }

TEST(Machine, ChargeAdvancesClockAndAccounts) {
  Machine m = MakeMachine();
  m.cpu().SetDomain(DomainId(7));
  m.Charge(100);
  m.ChargeTo(DomainId(8), 50);
  EXPECT_EQ(m.Now(), 150u);
  EXPECT_EQ(m.accounting().CyclesOf(DomainId(7)), 100u);
  EXPECT_EQ(m.accounting().CyclesOf(DomainId(8)), 50u);
}

TEST(Machine, AccountOnlyDoesNotAdvanceClock) {
  Machine m = MakeMachine();
  m.AccountOnly(DomainId(3), 500);
  EXPECT_EQ(m.Now(), 0u);
  EXPECT_EQ(m.accounting().CyclesOf(DomainId(3)), 500u);
}

TEST(Machine, ChargeWithInvalidDomainGoesToHardware) {
  Machine m = MakeMachine();
  m.Charge(10);  // no domain set
  EXPECT_EQ(m.accounting().CyclesOf(ukvm::kHardwareDomain), 10u);
}

TEST(Machine, EventsRunInTimeOrder) {
  Machine m = MakeMachine();
  std::vector<int> order;
  m.ScheduleAt(200, [&] { order.push_back(2); });
  m.ScheduleAt(100, [&] { order.push_back(1); });
  m.ScheduleAt(300, [&] { order.push_back(3); });
  m.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(m.Now(), 300u);
}

TEST(Machine, SameTimeEventsRunFifo) {
  Machine m = MakeMachine();
  std::vector<int> order;
  m.ScheduleAt(100, [&] { order.push_back(1); });
  m.ScheduleAt(100, [&] { order.push_back(2); });
  m.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Machine, IdleTimeAttributedToIdleDomain) {
  Machine m = MakeMachine();
  m.ScheduleAt(1000, [] {});
  m.RunUntilIdle();
  EXPECT_EQ(m.accounting().CyclesOf(kIdleDomain), 1000u);
}

TEST(Machine, CancelledEventsDoNotRun) {
  Machine m = MakeMachine();
  bool ran = false;
  const auto id = m.ScheduleAfter(50, [&] { ran = true; });
  m.CancelEvent(id);
  m.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(Machine, RunForStopsAtDeadline) {
  Machine m = MakeMachine();
  int fired = 0;
  m.ScheduleAt(100, [&] { ++fired; });
  m.ScheduleAt(900, [&] { ++fired; });
  m.RunFor(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(m.Now(), 500u);
  EXPECT_TRUE(m.HasPendingEvents());
}

TEST(Machine, RunForStopsAtDeadlineBehindCancelledEvent) {
  // A cancelled event before the deadline must not let the next live one,
  // due long after it, run early.
  Machine m = MakeMachine();
  bool late_ran = false;
  m.CancelEvent(m.ScheduleAt(100, [] {}));
  m.ScheduleAt(10'000, [&] { late_ran = true; });
  m.RunFor(1'000);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(m.Now(), 1'000u);
  EXPECT_EQ(m.accounting().CyclesOf(kIdleDomain), 1'000u);
  EXPECT_TRUE(m.HasPendingEvents());
  m.RunFor(9'000);
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(m.Now(), 10'000u);
}

TEST(Machine, WaitUntilSatisfied) {
  Machine m = MakeMachine();
  bool flag = false;
  m.ScheduleAt(250, [&] { flag = true; });
  EXPECT_EQ(m.WaitUntil([&] { return flag; }, 1'000'000), Err::kNone);
  EXPECT_GE(m.Now(), 250u);
}

TEST(Machine, WaitUntilTimesOut) {
  Machine m = MakeMachine();
  // Keep events trickling so the queue is never empty.
  std::function<void()> tick = [&] { m.ScheduleAfter(100, tick); };
  m.ScheduleAfter(100, tick);
  EXPECT_EQ(m.WaitUntil([] { return false; }, 1000), Err::kTimedOut);
}

TEST(Machine, WaitUntilWouldBlockWithoutEvents) {
  Machine m = MakeMachine();
  EXPECT_EQ(m.WaitUntil([] { return false; }, 1000), Err::kWouldBlock);
}

class RecordingHandler : public TrapHandler {
 public:
  void HandleTrap(TrapFrame& frame) override {
    traps.push_back(frame.vector);
    frame.regs[0] = 0xBEEF;
  }
  void HandleInterrupt(IrqLine line) override { irqs.push_back(line.value()); }

  std::vector<TrapVector> traps;
  std::vector<uint32_t> irqs;
};

TEST(Machine, RaiseTrapChargesAndDispatches) {
  Machine m = MakeMachine();
  RecordingHandler handler;
  m.SetTrapHandler(&handler);
  TrapFrame frame;
  frame.vector = TrapVector::kSyscall;
  m.RaiseTrap(frame);
  EXPECT_EQ(handler.traps.size(), 1u);
  EXPECT_EQ(frame.regs[0], 0xBEEFu);
  EXPECT_EQ(m.Now(), m.costs().trap_entry + m.costs().trap_return);
}

TEST(Machine, InterruptsDeliveredOnlyWhenEnabled) {
  Machine m = MakeMachine();
  RecordingHandler handler;
  m.SetTrapHandler(&handler);
  m.irq_controller().Assert(IrqLine(3));
  m.DeliverPendingInterrupts();
  EXPECT_TRUE(handler.irqs.empty());  // interrupts disabled by default
  m.cpu().SetInterruptsEnabled(true);
  m.DeliverPendingInterrupts();
  ASSERT_EQ(handler.irqs.size(), 1u);
  EXPECT_EQ(handler.irqs[0], 3u);
}

TEST(Machine, MaskedInterruptStaysPending) {
  Machine m = MakeMachine();
  RecordingHandler handler;
  m.SetTrapHandler(&handler);
  m.cpu().SetInterruptsEnabled(true);
  m.irq_controller().SetMask(IrqLine(4), true);
  m.irq_controller().Assert(IrqLine(4));
  m.DeliverPendingInterrupts();
  EXPECT_TRUE(handler.irqs.empty());
  m.irq_controller().SetMask(IrqLine(4), false);
  m.DeliverPendingInterrupts();
  EXPECT_EQ(handler.irqs.size(), 1u);
}

TEST(Machine, LowestLineDeliveredFirst) {
  Machine m = MakeMachine();
  RecordingHandler handler;
  m.SetTrapHandler(&handler);
  m.cpu().SetInterruptsEnabled(true);
  m.irq_controller().Assert(IrqLine(9));
  m.irq_controller().Assert(IrqLine(2));
  m.DeliverPendingInterrupts();
  ASSERT_EQ(handler.irqs.size(), 2u);
  EXPECT_EQ(handler.irqs[0], 2u);
  EXPECT_EQ(handler.irqs[1], 9u);
}

TEST(Cpu, TranslateHitsAndFaults) {
  Machine m = MakeMachine();
  PageTable pt(12, 32);
  ASSERT_EQ(pt.Map(0x4000, 5, PtePerms{false, true}), Err::kNone);
  m.cpu().SwitchAddressSpace(&pt);

  auto t = m.cpu().Translate(0x4010, /*write=*/false, /*user_access=*/true);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->paddr, m.memory().FrameBase(5) + 0x10);

  // Write to a read-only page faults.
  EXPECT_EQ(m.cpu().Translate(0x4010, true, true).error(), Err::kFault);
  // Unmapped page faults.
  EXPECT_EQ(m.cpu().Translate(0x9000, false, true).error(), Err::kFault);
}

TEST(Cpu, TranslateSetsAccessedAndDirty) {
  Machine m = MakeMachine();
  PageTable pt(12, 32);
  ASSERT_EQ(pt.Map(0x4000, 5, PtePerms{true, true}), Err::kNone);
  m.cpu().SwitchAddressSpace(&pt);
  ASSERT_TRUE(m.cpu().Translate(0x4000, true, true).ok());
  const Pte* pte = pt.Walk(0x4000);
  EXPECT_TRUE(pte->accessed);
  EXPECT_TRUE(pte->dirty);
}

TEST(Cpu, AddressSpaceSwitchFlushesUntaggedTlb) {
  Machine m = MakeMachine();  // x86: untagged
  PageTable a(12, 32);
  PageTable b(12, 32);
  ASSERT_EQ(a.Map(0x1000, 1, PtePerms{true, true}), Err::kNone);
  m.cpu().SwitchAddressSpace(&a);
  ASSERT_TRUE(m.cpu().Translate(0x1000, false, true).ok());
  EXPECT_EQ(m.cpu().tlb().valid_entries(), 1u);
  m.cpu().SwitchAddressSpace(&b);
  EXPECT_EQ(m.cpu().tlb().valid_entries(), 0u);
}

TEST(Cpu, TaggedTlbSurvivesSwitch) {
  Machine m(MakeMipsPlatform(), 1 << 20);
  PageTable a(12, 40);
  PageTable b(12, 40);
  ASSERT_EQ(a.Map(0x1000, 1, PtePerms{true, true}), Err::kNone);
  m.cpu().SwitchAddressSpace(&a);
  ASSERT_TRUE(m.cpu().Translate(0x1000, false, true).ok());
  m.cpu().SwitchAddressSpace(&b);
  EXPECT_EQ(m.cpu().tlb().valid_entries(), 1u);
}

TEST(Cpu, RedundantSwitchIsFree) {
  Machine m = MakeMachine();
  PageTable a(12, 32);
  m.cpu().SwitchAddressSpace(&a);
  const uint64_t t = m.Now();
  m.cpu().SwitchAddressSpace(&a);
  EXPECT_EQ(m.Now(), t);
}

TEST(Segmentation, ExclusionChecks) {
  SegmentState segs;
  // Default: flat 4 GiB segments do NOT exclude anything.
  EXPECT_FALSE(segs.AllExclude(0xFC00'0000ull, 0x1'0000'0000ull));
  segs.TruncateAll(0xFC00'0000ull);
  EXPECT_TRUE(segs.AllExclude(0xFC00'0000ull, 0x1'0000'0000ull));
}

TEST(Segmentation, SingleRegisterBreaksExclusion) {
  SegmentState segs;
  segs.TruncateAll(0xFC00'0000ull);
  SegmentDescriptor flat;
  flat.base = 0;
  flat.limit = uint64_t{1} << 32;
  segs.Set(SegmentReg::kGs, flat);  // glibc TLS-style full-range segment
  EXPECT_FALSE(segs.AllExclude(0xFC00'0000ull, 0x1'0000'0000ull));
}

TEST(Segmentation, TrapReloadsOnlyTwoOfSix) {
  // The architectural fact §3.2 hinges on.
  EXPECT_EQ(kTrapReloadedSegments, 2u);
  EXPECT_EQ(kSegmentRegCount, 6u);
}

TEST(Segmentation, DescriptorExcludes) {
  SegmentDescriptor d;
  d.base = 0;
  d.limit = 0x1000;
  EXPECT_TRUE(d.Excludes(0x1000, 0x2000));
  EXPECT_FALSE(d.Excludes(0xFFF, 0x2000));
  SegmentDescriptor high;
  high.base = 0x8000;
  high.limit = 0x1000;
  EXPECT_TRUE(high.Excludes(0, 0x8000));
  EXPECT_FALSE(high.Excludes(0x8FFF, 0x9000));
}


// --- E18: multi-vCPU machines and the TLB shootdown protocol -----------------

TEST(MultiVcpu, ConstructionAndRoundRobin) {
  Machine m(MakeX86Platform(), 1 << 20, 4);
  EXPECT_EQ(m.num_vcpus(), 4u);
  for (uint32_t v = 0; v < 4; ++v) {
    EXPECT_EQ(m.cpu(v).vcpu_id(), v);
  }
  EXPECT_EQ(m.current_vcpu(), 0u);
  EXPECT_EQ(m.SwitchVcpu(2), 0u);  // returns the previous index
  EXPECT_EQ(m.current_vcpu(), 2u);
  EXPECT_EQ(m.NextVcpu(), 3u);
  EXPECT_EQ(m.NextVcpu(), 0u);  // wraps
}

TEST(MultiVcpu, SingleVcpuShootdownIsFree) {
  Machine m(MakeX86Platform(), 1 << 20, 1);
  PageTable space(12, 32);
  m.cpu().SetDomain(DomainId(1));
  const Vaddr vpn = 5;
  const uint64_t before = m.Now();
  const uint64_t id = m.TlbShootdown(&space, {&vpn, 1});
  EXPECT_EQ(m.Now(), before);  // zero charges: E1-E17 stay byte-identical
  EXPECT_TRUE(m.ShootdownComplete(id));
  EXPECT_EQ(m.unacked_shootdowns(), 0u);
  EXPECT_EQ(m.shootdown_stats().requests, 1u);
  EXPECT_EQ(m.shootdown_stats().ipis_sent, 0u);
}

TEST(MultiVcpu, ShootdownFlushesRemoteTlbAndChargesProtocol) {
  Machine m(MakeX86Platform(), 1 << 20, 4);
  PageTable space(12, 32);
  auto frame = m.memory().AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  const Vaddr va = 0x5000;
  ASSERT_EQ(space.Map(va, *frame, PtePerms{true, true}), Err::kNone);

  // vCPU 1 caches the translation.
  m.SwitchVcpu(1);
  m.cpu().SetDomain(DomainId(1));
  m.cpu().SwitchAddressSpace(&space);
  ASSERT_TRUE(m.cpu().Translate(va, false, false).ok());
  const uint64_t key = space.VpnOf(va) ^ m.cpu().tlb_salt();
  ASSERT_TRUE(m.cpu().tlb().Probe(key).has_value());

  // vCPU 0 revokes the page: three IPIs out, then a spin on the slowest
  // target (interrupt dispatch + one single-page flush).
  m.SwitchVcpu(0);
  m.cpu().SetDomain(DomainId(1));
  const uint64_t before = m.Now();
  const Vaddr vpn = space.VpnOf(va);
  m.TlbShootdown(&space, {&vpn, 1});
  const auto& c = m.costs();
  EXPECT_EQ(m.Now() - before, 3 * c.ipi_send + c.interrupt_dispatch + c.tlb_flush_page);
  EXPECT_FALSE(m.cpu(1).tlb().Probe(key).has_value());
  EXPECT_EQ(m.shootdown_stats().ipis_sent, 3u);
  EXPECT_EQ(m.shootdown_stats().remote_acks, 3u);
}

TEST(MultiVcpu, ShootdownIpiDeliveredOnVcpuSwitch) {
  Machine m(MakeX86Platform(), 1 << 20, 2);
  PageTable space(12, 32);
  m.cpu().SetDomain(DomainId(1));
  const Vaddr vpn = 9;
  const uint64_t id = m.BeginTlbShootdown(&space, {&vpn, 1}, false);
  EXPECT_FALSE(m.ShootdownComplete(id));
  EXPECT_EQ(m.unacked_shootdowns(), 1u);
  uint64_t seen_id = 0;
  uint32_t seen_outstanding = 0;
  m.ForEachUnackedShootdown([&](uint64_t i, uint32_t initiator, uint32_t outstanding) {
    seen_id = i;
    seen_outstanding = outstanding;
    EXPECT_EQ(initiator, 0u);
  });
  EXPECT_EQ(seen_id, id);
  EXPECT_EQ(seen_outstanding, 1u);

  // Switching to the target drains its IPI queue, acking the request.
  m.SwitchVcpu(1);
  EXPECT_TRUE(m.ShootdownComplete(id));
  EXPECT_EQ(m.unacked_shootdowns(), 0u);
  m.SwitchVcpu(0);
  m.WaitTlbShootdown(id);  // still charges the initiator's spin
}

TEST(MultiVcpu, SpaceDeathReleasesSaltForReuse) {
  Machine m(MakeX86Platform(), 1 << 20, 2);
  const uint64_t reuses_before = TlbSaltRegistry::reuses();
  uint64_t salt_id = 0;
  {
    PageTable space(12, 32);
    salt_id = space.tlb_salt() >> 32;
    m.ShootdownSpaceDeath(&space);
    ASSERT_EQ(m.dead_spaces().size(), 1u);
    EXPECT_TRUE(m.dead_spaces()[0].flush_acked);
    EXPECT_EQ(m.dead_spaces()[0].salt, salt_id << 32);
    EXPECT_TRUE(m.IsDeadSpace(&space));
    EXPECT_NE(m.FindDeadSpaceBySalt(salt_id << 32), nullptr);
    // Released but not yet retired: the live table keeps its id.
    EXPECT_FALSE(TlbSaltRegistry::IsQuarantined(salt_id));
  }
  // Retired after Release: the id is free again and the next table takes it.
  EXPECT_FALSE(TlbSaltRegistry::IsQuarantined(salt_id));
  PageTable reuser(12, 32);
  EXPECT_EQ(reuser.tlb_salt() >> 32, salt_id);
  EXPECT_EQ(TlbSaltRegistry::reuses(), reuses_before + 1);
}

TEST(MultiVcpu, SaltQuarantinedWithoutDeathShootdown) {
  uint64_t salt_id = 0;
  {
    PageTable space(12, 32);
    salt_id = space.tlb_salt() >> 32;
  }
  // Retired with no Release: quarantined, never handed out again.
  EXPECT_TRUE(TlbSaltRegistry::IsQuarantined(salt_id));
  PageTable next(12, 32);
  EXPECT_NE(next.tlb_salt() >> 32, salt_id);
}

TEST(MultiVcpu, SpaceDeathShootdownIsIdempotent) {
  Machine m(MakeX86Platform(), 1 << 20, 2);
  PageTable space(12, 32);
  m.ShootdownSpaceDeath(&space);
  const uint64_t t = m.Now();
  m.ShootdownSpaceDeath(&space);  // second death: no-op
  EXPECT_EQ(m.Now(), t);
  EXPECT_EQ(m.dead_spaces().size(), 1u);
}

TEST(MultiVcpu, IpiControllerLatchesIdempotently) {
  IpiController ipis(2);
  EXPECT_FALSE(ipis.Pending(1, IpiVector::kTlbShootdown));
  ipis.Post(1, IpiVector::kTlbShootdown);
  ipis.Post(1, IpiVector::kTlbShootdown);  // already latched
  EXPECT_EQ(ipis.posted(), 1u);
  EXPECT_TRUE(ipis.Pending(1, IpiVector::kTlbShootdown));
  EXPECT_TRUE(ipis.TakePending(1, IpiVector::kTlbShootdown));
  EXPECT_FALSE(ipis.TakePending(1, IpiVector::kTlbShootdown));
  EXPECT_EQ(ipis.delivered(), 1u);
}

}  // namespace
}  // namespace hwsim
