// ukvm-check: mutation self-tests for every checker rule, plus clean runs
// of the three stacks' E1-E4 paths under the auditor.
//
// A checker that never fires is indistinguishable from one that cannot
// fire. Each mutation test corrupts machine or kernel state in exactly the
// way a rule exists to catch and asserts the auditor reports it; each
// clean-run test drives a real workload and asserts zero violations and
// exact call/reply pairing.

#include <gtest/gtest.h>

#include "src/check/auditor.h"
#include "src/check/invariants.h"
#include "src/check/ledger_lint.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/task.h"
#include "src/vmm/domain.h"
#include "src/vmm/hypervisor.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ucheck::Auditor;
using ucheck::Invariant;
using ucheck::LintRule;
using ukvm::DomainId;
using ukvm::Err;

size_t CountInvariant(Auditor& auditor, Invariant rule) {
  size_t n = 0;
  for (const auto& v : auditor.invariants().violations()) {
    if (v.rule == rule) {
      ++n;
    }
  }
  return n;
}

size_t CountLint(Auditor& auditor, LintRule rule) {
  size_t n = 0;
  for (const auto& v : auditor.lint().violations()) {
    if (v.rule == rule) {
      ++n;
    }
  }
  return n;
}

// A bare machine plus one raw page table attached to the auditor — the
// smallest fixture that exercises the TLB/PTE/frame rules.
struct RawFixture {
  RawFixture()
      : machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024), space(machine), auditor(machine) {
    auditor.AttachSpace(kDomain, space);
  }

  static constexpr DomainId kDomain{7};
  hwsim::Machine machine;
  hwsim::PageTable space;
  Auditor auditor;
};

// --- TLB rules -----------------------------------------------------------------

TEST(CheckMutation, StaleTlbEntryAfterRawUnmap) {
  RawFixture f;
  auto frame = f.machine.memory().AllocFrame(RawFixture::kDomain);
  ASSERT_TRUE(frame.ok());
  const hwsim::Vaddr va = 0x1000'0000;
  ASSERT_EQ(f.space.Map(va, *frame, {true, true}), Err::kNone);
  f.machine.cpu().SwitchAddressSpace(&f.space);
  ASSERT_TRUE(f.machine.cpu().Translate(va, false, false).ok());  // fills the TLB
  ASSERT_EQ(f.auditor.violation_count(), 0u);

  // Corruption: revoke the PTE without any TLB invalidation.
  ASSERT_EQ(f.space.Unmap(va), Err::kNone);
  f.auditor.Checkpoint("mutation");
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kTlbStale), 1u);
}

TEST(CheckMutation, BogusTlbInsertFlagged) {
  RawFixture f;
  f.machine.cpu().SwitchAddressSpace(&f.space);
  // Corruption: an MMU that caches a translation no page table contains.
  f.machine.cpu().FillTlb(0x123, 99, true, true);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kTlbStale), 1u);
}

TEST(CheckMutation, TlbFrameMismatchFlagged) {
  RawFixture f;
  auto frame = f.machine.memory().AllocFrame(RawFixture::kDomain);
  ASSERT_TRUE(frame.ok());
  const hwsim::Vaddr va = 0x1000'0000;
  ASSERT_EQ(f.space.Map(va, *frame, {false, true}), Err::kNone);
  f.machine.cpu().SwitchAddressSpace(&f.space);
  // Corruption: cache the right page with the wrong frame and inflated
  // permissions.
  f.machine.cpu().FillTlb(f.space.VpnOf(va), *frame + 1, true, true);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kTlbMismatch), 1u);
}

// --- E18: shootdown discipline ---------------------------------------------------

TEST(CheckMutation, StaleTlbAfterDestroyFlagged) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024, 2);
  Auditor auditor(machine);

  uint64_t salt = 0;
  {
    hwsim::PageTable space(machine.platform().page_shift, machine.platform().vaddr_bits);
    salt = space.tlb_salt();
    machine.ShootdownSpaceDeath(&space);
  }
  auditor.Checkpoint("after-death");
  ASSERT_EQ(auditor.violation_count(), 0u);

  // Corruption: a vCPU that ignored the death shootdown still caches a
  // translation under the dead space's salt (planted straight into the
  // TLB, past the MMU fill's insert check).
  machine.cpu(0).tlb().Insert(0x123 ^ salt, 7, false, false);
  auditor.Checkpoint("mutation");
  EXPECT_GE(CountInvariant(auditor, Invariant::kStaleTlbAfterDestroy), 1u);
}

TEST(CheckMutation, UnackedShootdownFlagged) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024, 2);
  Auditor auditor(machine);
  hwsim::PageTable space(machine.platform().page_shift, machine.platform().vaddr_bits);
  machine.cpu().SetDomain(DomainId(1));

  // Corruption: an initiator that never waits for its acks.
  const hwsim::Vaddr vpn = 5;
  const uint64_t id = machine.BeginTlbShootdown(&space, {&vpn, 1}, false);
  auditor.Checkpoint("mutation");
  EXPECT_GE(CountInvariant(auditor, Invariant::kUnackedShootdown), 1u);

  // Completing the protocol clears the condition.
  machine.WaitTlbShootdown(id);
  auditor.ClearViolations();
  auditor.Checkpoint("completed");
  EXPECT_EQ(CountInvariant(auditor, Invariant::kUnackedShootdown), 0u);
}

TEST(CheckRegression, UnattributableTlbEntrySkippedExplicitly) {
  // A TLB entry whose space vanished without a death shootdown has no live
  // view and no dead-space record: the auditor cannot dereference anything,
  // so it must land on the explicit skip counter — not flag, not vanish.
  hwsim::Machine machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024);
  Auditor auditor(machine);

  uint64_t salt = 0;
  {
    hwsim::PageTable space(machine.platform().page_shift, machine.platform().vaddr_bits);
    salt = space.tlb_salt();
  }  // destroyed, no ShootdownSpaceDeath: salt quarantined, no dead record
  machine.cpu().tlb().Insert(0x42 ^ salt, 7, false, false);
  const uint64_t skipped_before = auditor.invariants().tlb_entries_skipped();
  auditor.Checkpoint("unattributable");
  EXPECT_EQ(auditor.violation_count(), 0u);
  EXPECT_GE(auditor.invariants().tlb_entries_skipped(), skipped_before + 1);
}

TEST(CheckIncremental, CheckpointAuditsOnlyNewEntries) {
  // Same history under a full-sweep auditor and an incremental one: the
  // second checkpoint re-audits everything under full sweeps but only the
  // one new entry under incremental ones.
  for (const bool incremental : {false, true}) {
    hwsim::Machine machine(hwsim::MakeX86Platform(), 8ull * 1024 * 1024);
    hwsim::PageTable space(machine);
    Auditor::Options opts;
    opts.incremental_tlb = incremental;
    Auditor auditor(machine, opts);
    auditor.AttachSpace(DomainId{7}, space);
    machine.cpu().SetDomain(DomainId{7});
    machine.cpu().SwitchAddressSpace(&space);

    for (hwsim::Vaddr va = 0x1000'0000; va < 0x1000'3000; va += 0x1000) {
      auto frame = machine.memory().AllocFrame(DomainId{7});
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(space.Map(va, *frame, {true, true}), Err::kNone);
      ASSERT_TRUE(machine.cpu().Translate(va, false, false).ok());
    }
    auditor.Checkpoint("first");
    const uint64_t after_first = auditor.invariants().tlb_entries_audited();

    auto frame = machine.memory().AllocFrame(DomainId{7});
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(space.Map(0x2000'0000, *frame, {true, true}), Err::kNone);
    ASSERT_TRUE(machine.cpu().Translate(0x2000'0000, false, false).ok());
    auditor.Checkpoint("second");
    const uint64_t second_sweep = auditor.invariants().tlb_entries_audited() - after_first;

    EXPECT_EQ(auditor.violation_count(), 0u);
    if (incremental) {
      EXPECT_EQ(second_sweep, 1u);  // just the new entry
    } else {
      EXPECT_EQ(second_sweep, 4u);  // the whole TLB again
    }
  }
}

// --- Frame ownership and privilege ---------------------------------------------

TEST(CheckMutation, MappingFreeFrameFlagged) {
  RawFixture f;
  // Corruption: a PTE onto a frame the allocator never handed out.
  ASSERT_EQ(f.space.Map(0x2000'0000, 42, {true, true}), Err::kNone);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kFreeFrameMapping), 1u);
}

TEST(CheckMutation, UserMappingOfKernelFrameFlagged) {
  RawFixture f;
  auto frame = f.machine.memory().AllocFrame(DomainId{0});  // kernel-owned
  ASSERT_TRUE(frame.ok());
  // Corruption: user-accessible PTE onto the kernel's frame.
  ASSERT_EQ(f.space.Map(0x2000'0000, *frame, {true, true}), Err::kNone);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kPrivilegedFrameUserMapped), 1u);
}

TEST(CheckMutation, UkernelForeignFrameWithoutMapdbFlagged) {
  ustack::UkernelStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  ukern::Task* task = stack.kernel().FindTask(stack.guest(0).os_task);
  ASSERT_NE(task, nullptr);
  auto frame = stack.machine().memory().AllocFrame(DomainId{77});
  ASSERT_TRUE(frame.ok());
  // Corruption: a mapping smuggled in behind the mapping database's back.
  ASSERT_EQ(task->space.Map(0x7000'0000, *frame, {true, true}), Err::kNone);
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kUnownedMapping), 1u);
}

TEST(CheckMutation, MapdbNodeWithoutPteFlagged) {
  ustack::UkernelStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  // Grab any recorded mapping...
  const ukern::MapNode* victim = nullptr;
  stack.kernel().mapdb().ForEachNode([&](const ukern::MapNode& node) {
    if (victim == nullptr) {
      victim = &node;
    }
  });
  ASSERT_NE(victim, nullptr);
  ukern::Task* task = stack.kernel().FindTask(victim->task);
  ASSERT_NE(task, nullptr);
  // ...and corrupt: clear its PTE while the database still records it.
  ASSERT_EQ(task->space.Unmap(victim->vpn << task->space.page_shift()), Err::kNone);
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kMapDbIncoherent), 1u);
}

// --- Grant rules ----------------------------------------------------------------

TEST(CheckMutation, GrantRefcountMismatchFlagged) {
  ustack::VmmStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  const DomainId guest = stack.guest(0).domain;
  auto ref = stack.hv().HcGrantAccess(guest, stack.dom0(), /*pfn=*/5, /*writable=*/true);
  ASSERT_TRUE(ref.ok());
  const hwsim::Vaddr va = 0xE800'0000;
  ASSERT_EQ(stack.hv().HcGrantMap(stack.dom0(), guest, *ref, va, true), Err::kNone);
  // Corruption: tear the mapping out directly, leaving the grant's
  // active-mapping count at 1 with zero live PTEs.
  uvmm::Domain* dom0 = stack.hv().FindDomain(stack.dom0());
  ASSERT_NE(dom0, nullptr);
  ASSERT_EQ(dom0->space.Unmap(va), Err::kNone);
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kGrantRefcountMismatch), 1u);
}

TEST(CheckMutation, GrantMapIntoHypervisorHoleRejectedAndFlagged) {
  // MapGrant validates the hypervisor hole itself (as mmu_update always
  // has); the auditor's kHypervisorHoleMapping rule stays behind it as
  // defence-in-depth against mappings that bypass the hypercall.
  ustack::VmmStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  const DomainId guest = stack.guest(0).domain;
  auto ref = stack.hv().HcGrantAccess(guest, stack.dom0(), /*pfn=*/5, /*writable=*/true);
  ASSERT_TRUE(ref.ok());
  const hwsim::Vaddr hole_va = uvmm::kHoleBase;
  EXPECT_EQ(stack.hv().HcGrantMap(stack.dom0(), guest, *ref, hole_va, true),
            Err::kPermissionDenied);
  EXPECT_EQ(CountInvariant(*stack.auditor(), Invariant::kHypervisorHoleMapping), 0u);

  // Corruption: install the hole mapping directly, bypassing MapGrant.
  uvmm::Domain* dom0 = stack.hv().FindDomain(stack.dom0());
  ASSERT_NE(dom0, nullptr);
  dom0->space.Map(hole_va, dom0->p2m[5], hwsim::PtePerms{true, true});
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kHypervisorHoleMapping), 1u);
}

// --- E19: dead-domain reclamation ------------------------------------------------

TEST(CheckMutation, GrantHeldByDeadDomainFlagged) {
  ustack::VmmStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  const DomainId guest = stack.guest(0).domain;
  // A live grant from the guest (the frontends keep several active).
  auto ref = stack.hv().HcGrantAccess(guest, stack.dom0(), /*pfn=*/5, /*writable=*/true);
  ASSERT_TRUE(ref.ok());
  stack.auditor()->Checkpoint("clean");
  ASSERT_EQ(CountInvariant(*stack.auditor(), Invariant::kGrantHeldByDeadDomain), 0u);

  // Corruption: the granter "dies" without DestroyDomain's reclamation, so
  // its grants survive the corpse.
  uvmm::Domain* dom = stack.hv().FindDomain(guest);
  ASSERT_NE(dom, nullptr);
  dom->alive = false;
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kGrantHeldByDeadDomain), 1u);
  dom->alive = true;  // restore for orderly teardown
}

TEST(CheckMutation, DanglingEventChannelFlagged) {
  ustack::VmmStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  const DomainId guest = stack.guest(0).domain;
  stack.auditor()->Checkpoint("clean");
  ASSERT_EQ(CountInvariant(*stack.auditor(), Invariant::kDanglingEventChannel), 0u);

  // Corruption: the guest "dies" with its split-driver event channels (and
  // the remote ends connected to them) still allocated.
  uvmm::Domain* dom = stack.hv().FindDomain(guest);
  ASSERT_NE(dom, nullptr);
  dom->alive = false;
  stack.auditor()->Checkpoint("mutation");
  EXPECT_GE(CountInvariant(*stack.auditor(), Invariant::kDanglingEventChannel), 1u);
  dom->alive = true;
}

TEST(CheckClean, DestroyDomainLeavesNoDeadReferences) {
  // The positive counterpart: DestroyDomain's reclamation must leave zero
  // grants or channels naming the corpse.
  {
    ustack::VmmStack::Config config;
    config.parallax_storage = true;
    ustack::VmmStack stack(config);
    ASSERT_NE(stack.auditor(), nullptr);
    ASSERT_EQ(stack.KillStorage(), Err::kNone);
    stack.auditor()->Checkpoint("after-kill");
    EXPECT_EQ(CountInvariant(*stack.auditor(), Invariant::kGrantHeldByDeadDomain), 0u);
    EXPECT_EQ(CountInvariant(*stack.auditor(), Invariant::kDanglingEventChannel), 0u);
  }
  // Guest death with persistent grants: Dom0's blkback holds live mappings
  // of the guest's I/O pages (8 pages x read/write grants). Reclamation
  // must unmap them before the frames are freed, so neither the freed
  // frames nor their next owner's are reachable from Dom0.
  ustack::VmmStack::Config config;
  config.num_guests = 2;
  config.persistent_grants = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("writer");
    for (int i = 0; i < 4; ++i) {
      const minios::SyscallRet fd = os.Create(*pid, "f" + std::to_string(i));
      ASSERT_GE(fd, 0);
      const std::vector<uint8_t> data(700, static_cast<uint8_t>(i));
      EXPECT_EQ(os.Write(*pid, fd, data), 700);
      EXPECT_EQ(os.Close(*pid, fd), 0);
    }
  });
  ASSERT_EQ(stack.KillGuest(0), Err::kNone);
  stack.auditor()->Checkpoint("after-guest-kill");
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  // A new domain receives the freed frames.
  ASSERT_TRUE(
      stack.hv().CreateDomain("Reuse", ustack::VmmStack::kGuestPages, /*privileged=*/false).ok());
  stack.auditor()->Checkpoint("after-reuse");
  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  EXPECT_EQ(stack.machine().counters().Get("xen.reclaim.unmaps"), 16u);
}

// --- DMA rules ------------------------------------------------------------------

TEST(CheckMutation, DmaToFreeFrameFlagged) {
  RawFixture f;
  // Corruption: a device programmed with an address nobody allocated.
  f.machine.NotifyDmaTarget(f.machine.memory().FrameBase(100), /*to_memory=*/true);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kDmaToFreeFrame), 1u);
}

TEST(CheckMutation, DmaToKernelFrameFlagged) {
  RawFixture f;
  auto frame = f.machine.memory().AllocFrame(DomainId{0});
  ASSERT_TRUE(frame.ok());
  // Corruption: a device reading kernel-owned memory.
  f.machine.NotifyDmaTarget(f.machine.memory().FrameBase(*frame), /*to_memory=*/false);
  EXPECT_GE(CountInvariant(f.auditor, Invariant::kDmaToPrivilegedFrame), 1u);
}

// --- Ledger lint rules ----------------------------------------------------------

struct LintFixture {
  LintFixture() : machine(hwsim::MakeX86Platform(), 4ull * 1024 * 1024), auditor(machine) {}

  ukvm::CrossingLedger& ledger() { return machine.ledger(); }

  hwsim::Machine machine;
  Auditor auditor;
};

TEST(CheckMutation, UnmatchedReplyFlagged) {
  LintFixture f;
  const uint32_t reply = f.ledger().InternMechanism("l4.ipc.reply", ukvm::CrossingKind::kSyncReply);
  // Corruption: a reply with no outstanding call.
  f.ledger().Record(reply, DomainId{2}, DomainId{1}, 100, 0);
  EXPECT_GE(CountLint(f.auditor, LintRule::kUnmatchedReply), 1u);
}

TEST(CheckMutation, UnbalancedCallFlagged) {
  LintFixture f;
  const uint32_t call = f.ledger().InternMechanism("l4.ipc.call", ukvm::CrossingKind::kSyncCall);
  // Corruption: a call that never gets its reply by the quiescent point.
  f.ledger().Record(call, DomainId{1}, DomainId{2}, 100, 0);
  f.auditor.Checkpoint("quiescent");
  EXPECT_GE(CountLint(f.auditor, LintRule::kUnbalancedPair), 1u);
}

TEST(CheckMutation, ReplyWrongDirectionFlagged) {
  LintFixture f;
  const uint32_t call = f.ledger().InternMechanism("l4.ipc.call", ukvm::CrossingKind::kSyncCall);
  const uint32_t reply = f.ledger().InternMechanism("l4.ipc.reply", ukvm::CrossingKind::kSyncReply);
  f.ledger().Record(call, DomainId{1}, DomainId{2}, 100, 0);
  // Corruption: the reply travels the same direction as the call instead of
  // the reverse.
  f.ledger().Record(reply, DomainId{1}, DomainId{2}, 100, 0);
  EXPECT_GE(CountLint(f.auditor, LintRule::kUnmatchedReply), 1u);
}

TEST(CheckMutation, NonMonotonicTimeFlagged) {
  LintFixture f;
  uint64_t fake_now = 1000;
  f.ledger().SetTimeSource([&fake_now] { return fake_now; });
  const uint32_t notify =
      f.ledger().InternMechanism("l4.ipc.notify", ukvm::CrossingKind::kAsyncNotify);
  f.ledger().Record(notify, DomainId{1}, DomainId{2}, 0, 0);
  fake_now = 500;  // corruption: the clock runs backwards
  f.ledger().Record(notify, DomainId{1}, DomainId{2}, 0, 0);
  EXPECT_GE(CountLint(f.auditor, LintRule::kNonMonotonicTime), 1u);
}

TEST(CheckMutation, BadMechanismNamesFlagged) {
  LintFixture f;
  // Corruption: unknown stack prefix, illegal characters, too few segments.
  const uint32_t bad_prefix =
      f.ledger().InternMechanism("solaris.doors.call", ukvm::CrossingKind::kSyncCall);
  const uint32_t bad_chars =
      f.ledger().InternMechanism("l4.IPC.Call", ukvm::CrossingKind::kSyncCall);
  const uint32_t bad_arity = f.ledger().InternMechanism("l4", ukvm::CrossingKind::kSyncCall);
  f.ledger().Record(bad_prefix, DomainId{1}, DomainId{2}, 0, 0);
  f.ledger().Record(bad_chars, DomainId{1}, DomainId{2}, 0, 0);
  f.ledger().Record(bad_arity, DomainId{1}, DomainId{2}, 0, 0);
  EXPECT_GE(CountLint(f.auditor, LintRule::kBadMechanismName), 3u);
}

TEST(CheckMutation, KindMismatchFlagged) {
  LintFixture f;
  // Corruption: a mechanism whose name says reply but whose kind says call.
  const uint32_t liar = f.ledger().InternMechanism("l4.fake.reply", ukvm::CrossingKind::kSyncCall);
  f.ledger().Record(liar, DomainId{2}, DomainId{1}, 0, 0);
  EXPECT_GE(CountLint(f.auditor, LintRule::kKindMismatch), 1u);
}

// --- Clean runs: the three stacks' E1-E4 paths under the auditor ----------------

TEST(CheckCleanRun, UkernelStackWorkloadsAuditClean) {
  ustack::UkernelStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  // The auditor attaches after boot, so boot-time crossings are in the
  // ledger's aggregate counters but not in the linter's stream. Baseline
  // here; pairing is asserted on the delta.
  auto& ledger = stack.machine().ledger();
  const uint64_t boot_opens =
      ledger.StatsFor("l4.ipc.call").count + ledger.StatsFor("l4.pf.ipc").count;
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 50);           // E1/E2 path
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);          // E4 blend
    wire.StartStream(40, 200, 50 * hwsim::kCyclesPerUs, 4);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 4, 1'000'000'000ull);
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);

  // Every open the linter saw (call or fault IPC) paired with exactly one
  // reply, and the ledger's own totals balance too.
  const uint64_t opens =
      ledger.StatsFor("l4.ipc.call").count + ledger.StatsFor("l4.pf.ipc").count;
  ASSERT_GT(opens, boot_opens);
  EXPECT_EQ(stack.auditor()->lint().CompletedPairs("ipc"), opens - boot_opens);
  EXPECT_EQ(ledger.StatsFor("l4.ipc.reply").count, opens);
}

TEST(CheckCleanRun, VmmStackPageFlipWorkloadsAuditClean) {
  ustack::VmmStack stack;
  ASSERT_NE(stack.auditor(), nullptr);
  // Baseline past the boot-time crossings the linter never saw (the
  // auditor attaches after the guests boot).
  auto& ledger = stack.machine().ledger();
  const uint64_t boot_hypercalls = ledger.StatsFor("xen.hypercall").count;
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

  // Hypercalls pair with their returns one-to-one.
  const uint64_t hypercalls = ledger.StatsFor("xen.hypercall").count;
  ASSERT_GT(hypercalls, boot_hypercalls);
  EXPECT_EQ(stack.auditor()->lint().CompletedPairs("hypercall"), hypercalls - boot_hypercalls);
  EXPECT_EQ(ledger.StatsFor("xen.hypercall.return").count, hypercalls);
}

TEST(CheckCleanRun, VmmStackGrantCopyWorkloadsAuditClean) {
  ustack::VmmStack::Config config;
  config.rx_mode = ustack::RxMode::kGrantCopy;
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
}

TEST(CheckCleanRun, NativeStackWorkloadsAuditClean) {
  ustack::NativeStack stack;
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
  EXPECT_GT(stack.auditor()->lint().events_observed(), 0u);
}

// Guest-trap pairing on the platform that forces reflected syscalls
// (glibc-style segments disable the fast gate, so every syscall becomes
// reflect + iret).
TEST(CheckCleanRun, VmmReflectedSyscallsPairWithIret) {
  ustack::VmmStack::Config config;
  config.request_fast_syscall = false;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("app");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 25);
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");

  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  EXPECT_GT(stack.auditor()->lint().CompletedPairs("guest-trap"), 0u);
}

}  // namespace
