// Tests for the Xen-style hypervisor: domains, event channels, grant tables
// (map/copy/transfer), paravirtual page-table updates, and exception
// virtualisation with the fast trap-gate shortcut.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "src/hw/machine.h"
#include "src/vmm/hypervisor.h"

namespace uvmm {
namespace {

using hwsim::Machine;
using hwsim::MakeX86Platform;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;

class VmmTest : public ::testing::Test {
 protected:
  VmmTest() : machine_(MakeX86Platform(), 8 << 20), hv_(machine_) {
    auto dom0 = hv_.CreateDomain("Dom0", 64, /*privileged=*/true);
    EXPECT_TRUE(dom0.ok());
    dom0_ = *dom0;
    auto guest = hv_.CreateDomain("DomU", 64, /*privileged=*/false);
    EXPECT_TRUE(guest.ok());
    guest_ = *guest;
    machine_.cpu().SetInterruptsEnabled(true);
  }

  void PokePfn(DomainId dom, Pfn pfn, std::span<const uint8_t> bytes) {
    Domain* d = hv_.FindDomain(dom);
    auto mfn = d->MfnOf(pfn);
    ASSERT_TRUE(mfn.ok());
    machine_.memory().Write(machine_.memory().FrameBase(*mfn), bytes);
  }

  std::vector<uint8_t> PeekPfn(DomainId dom, Pfn pfn, size_t len) {
    Domain* d = hv_.FindDomain(dom);
    auto mfn = d->MfnOf(pfn);
    EXPECT_TRUE(mfn.ok());
    std::vector<uint8_t> out(len);
    machine_.memory().Read(machine_.memory().FrameBase(*mfn), out);
    return out;
  }

  Machine machine_;
  Hypervisor hv_;
  DomainId dom0_;
  DomainId guest_;
};

TEST_F(VmmTest, DomainCreationOwnsFrames) {
  Domain* g = hv_.FindDomain(guest_);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->p2m.size(), 64u);
  for (Pfn pfn = 0; pfn < g->p2m.size(); ++pfn) {
    EXPECT_EQ(machine_.memory().OwnerOf(g->p2m[pfn]), guest_);
  }
}

TEST_F(VmmTest, DomainCreationFailsWithoutMemory) {
  EXPECT_EQ(hv_.CreateDomain("huge", 1u << 30, false).error(), Err::kNoMemory);
}

TEST_F(VmmTest, DestroyDomainFreesFrames) {
  const uint64_t free_before = machine_.memory().free_frames();
  auto victim = hv_.CreateDomain("victim", 32, false);
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(machine_.memory().free_frames(), free_before - 32);
  ASSERT_EQ(hv_.DestroyDomain(*victim), Err::kNone);
  EXPECT_EQ(machine_.memory().free_frames(), free_before);
  EXPECT_FALSE(hv_.DomainAlive(*victim));
  EXPECT_EQ(hv_.DestroyDomain(*victim), Err::kBadHandle);
}

TEST_F(VmmTest, SegmentsStartTruncated) {
  Domain* g = hv_.FindDomain(guest_);
  EXPECT_TRUE(g->segments.AllExclude(kHoleBase, kHoleEnd));
}

// --- Event channels ----------------------------------------------------------

TEST_F(VmmTest, EvtchnBindAndSend) {
  std::vector<uint32_t> dom0_upcalls;
  ASSERT_EQ(hv_.HcSetUpcall(dom0_, [&](uint32_t port) { dom0_upcalls.push_back(port); }),
            Err::kNone);
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  ASSERT_TRUE(unbound.ok());
  auto port = hv_.HcEvtchnBind(guest_, dom0_, *unbound);
  ASSERT_TRUE(port.ok());

  EXPECT_EQ(hv_.HcEvtchnSend(guest_, *port), Err::kNone);
  ASSERT_EQ(dom0_upcalls.size(), 1u);
  EXPECT_EQ(dom0_upcalls[0], *unbound);
}

TEST_F(VmmTest, EvtchnSendBothDirections) {
  int guest_upcalls = 0;
  ASSERT_EQ(hv_.HcSetUpcall(guest_, [&](uint32_t) { ++guest_upcalls; }), Err::kNone);
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  auto port = hv_.HcEvtchnBind(guest_, dom0_, *unbound);
  ASSERT_TRUE(port.ok());
  EXPECT_EQ(hv_.HcEvtchnSend(dom0_, *unbound), Err::kNone);
  EXPECT_EQ(guest_upcalls, 1);
}

TEST_F(VmmTest, EvtchnBindValidation) {
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  ASSERT_TRUE(unbound.ok());
  // A third domain cannot steal the reserved port.
  auto other = hv_.CreateDomain("other", 8, false);
  EXPECT_EQ(hv_.HcEvtchnBind(*other, dom0_, *unbound).error(), Err::kPermissionDenied);
  // Binding a nonexistent port fails.
  EXPECT_EQ(hv_.HcEvtchnBind(guest_, dom0_, 1234).error(), Err::kNotFound);
  // Double bind fails.
  ASSERT_TRUE(hv_.HcEvtchnBind(guest_, dom0_, *unbound).ok());
  EXPECT_EQ(hv_.HcEvtchnBind(guest_, dom0_, *unbound).error(), Err::kBusy);
}

TEST_F(VmmTest, EvtchnMaskDefersUpcall) {
  int upcalls = 0;
  ASSERT_EQ(hv_.HcSetUpcall(dom0_, [&](uint32_t) { ++upcalls; }), Err::kNone);
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  auto port = hv_.HcEvtchnBind(guest_, dom0_, *unbound);
  ASSERT_EQ(hv_.HcEvtchnMask(dom0_, *unbound, true), Err::kNone);
  EXPECT_EQ(hv_.HcEvtchnSend(guest_, *port), Err::kNone);
  EXPECT_EQ(upcalls, 0);
  // The pending bit is still observable.
  auto pending = hv_.evtchn().ConsumePending(dom0_, *unbound);
  ASSERT_TRUE(pending.ok());
  EXPECT_TRUE(*pending);
}

TEST_F(VmmTest, EvtchnSendToDeadPeerFails) {
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  auto port = hv_.HcEvtchnBind(guest_, dom0_, *unbound);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(hv_.DestroyDomain(dom0_), Err::kNone);
  EXPECT_NE(hv_.HcEvtchnSend(guest_, *port), Err::kNone);
}

TEST_F(VmmTest, EvtchnCloseDisconnectsPeer) {
  auto unbound = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  auto port = hv_.HcEvtchnBind(guest_, dom0_, *unbound);
  ASSERT_EQ(hv_.HcEvtchnClose(dom0_, *unbound), Err::kNone);
  EXPECT_NE(hv_.HcEvtchnSend(guest_, *port), Err::kNone);
}

// --- Grant tables ---------------------------------------------------------------

TEST_F(VmmTest, GrantMapSharesFrame) {
  const std::vector<uint8_t> tag = {0xAB, 0xCD};
  PokePfn(guest_, 5, tag);
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 5, /*writable=*/false);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(hv_.HcGrantMap(dom0_, guest_, *ref, 0xE0000000, /*write=*/false), Err::kNone);

  Domain* d0 = hv_.FindDomain(dom0_);
  const hwsim::Pte* pte = d0->space.Walk(0xE0000000);
  ASSERT_NE(pte, nullptr);
  ASSERT_TRUE(pte->present);
  std::vector<uint8_t> out(2);
  machine_.memory().Read(machine_.memory().FrameBase(pte->frame), out);
  EXPECT_EQ(out, tag);
}

TEST_F(VmmTest, GrantMapRespectsWritability) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 5, /*writable=*/false);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(hv_.HcGrantMap(dom0_, guest_, *ref, 0xE0000000, /*write=*/true),
            Err::kPermissionDenied);
}

TEST_F(VmmTest, GrantMapOnlyForNamedGrantee) {
  auto other = hv_.CreateDomain("other", 8, false);
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 5, false);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(hv_.HcGrantMap(*other, guest_, *ref, 0xE0000000, false), Err::kPermissionDenied);
}

TEST_F(VmmTest, EndGrantBlockedWhileMapped) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 5, true);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(hv_.HcGrantMap(dom0_, guest_, *ref, 0xE0000000, true), Err::kNone);
  EXPECT_EQ(hv_.HcGrantEnd(guest_, *ref), Err::kBusy);
  ASSERT_EQ(hv_.HcGrantUnmap(dom0_, guest_, *ref, 0xE0000000), Err::kNone);
  EXPECT_EQ(hv_.HcGrantEnd(guest_, *ref), Err::kNone);
  // The ref is gone now.
  EXPECT_EQ(hv_.HcGrantMap(dom0_, guest_, *ref, 0xE0000000, true), Err::kBadHandle);
}

TEST_F(VmmTest, GrantCopyBothDirections) {
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  PokePfn(guest_, 7, data);
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 7, /*writable=*/true);
  ASSERT_TRUE(ref.ok());

  // dom0 pulls from the grant into its own pfn 3.
  ASSERT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, 0, 3, 0, 8, /*to_grant=*/false), Err::kNone);
  EXPECT_EQ(PeekPfn(dom0_, 3, 8), data);

  // dom0 pushes modified data back.
  std::vector<uint8_t> mod = {9, 9, 9, 9};
  PokePfn(dom0_, 3, mod);
  ASSERT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, 16, 3, 0, 4, /*to_grant=*/true), Err::kNone);
  Domain* g = hv_.FindDomain(guest_);
  std::vector<uint8_t> out(4);
  machine_.memory().Read(machine_.memory().FrameBase(*g->MfnOf(7)) + 16, out);
  EXPECT_EQ(out, mod);
}

TEST_F(VmmTest, GrantCopyBoundsChecked) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 7, true);
  const uint64_t page = machine_.memory().page_size();
  EXPECT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, page - 2, 3, 0, 8, false), Err::kOutOfRange);
  EXPECT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, 0, 3, page - 2, 8, false), Err::kOutOfRange);
  EXPECT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, 0, 3, 0, 0, false), Err::kOutOfRange);
}

TEST_F(VmmTest, GrantCopyToReadOnlyGrantDenied) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 7, /*writable=*/false);
  EXPECT_EQ(hv_.HcGrantCopy(dom0_, guest_, *ref, 0, 3, 0, 8, /*to_grant=*/true),
            Err::kPermissionDenied);
}

TEST_F(VmmTest, PageFlipSwapsFramesAndContents) {
  const std::vector<uint8_t> guest_tag = {0x11, 0x22};
  const std::vector<uint8_t> dom0_tag = {0x33, 0x44};
  PokePfn(guest_, 9, guest_tag);   // the guest's advertised slot
  PokePfn(dom0_, 4, dom0_tag);     // the packet-bearing page

  Domain* g = hv_.FindDomain(guest_);
  Domain* d0 = hv_.FindDomain(dom0_);
  const hwsim::Frame guest_frame = *g->MfnOf(9);
  const hwsim::Frame dom0_frame = *d0->MfnOf(4);

  auto ref = hv_.HcGrantTransferSlot(guest_, dom0_, 9);
  ASSERT_TRUE(ref.ok());
  auto exchanged = hv_.HcGrantTransfer(dom0_, 4, guest_, *ref);
  ASSERT_TRUE(exchanged.ok());
  EXPECT_EQ(*exchanged, guest_frame);  // dom0 received the guest's old frame

  // Frames swapped in the p2m maps...
  EXPECT_EQ(*g->MfnOf(9), dom0_frame);
  EXPECT_EQ(*d0->MfnOf(4), guest_frame);
  // ...ownership followed...
  EXPECT_EQ(machine_.memory().OwnerOf(dom0_frame), guest_);
  EXPECT_EQ(machine_.memory().OwnerOf(guest_frame), dom0_);
  // ...and the packet contents are now visible at the guest's pfn.
  EXPECT_EQ(PeekPfn(guest_, 9, 2), dom0_tag);
  EXPECT_EQ(machine_.counters().Get("xen.page_flips"), 1u);
}

TEST_F(VmmTest, TransferGrantIsSingleUse) {
  auto ref = hv_.HcGrantTransferSlot(guest_, dom0_, 9);
  ASSERT_TRUE(hv_.HcGrantTransfer(dom0_, 4, guest_, *ref).ok());
  EXPECT_EQ(hv_.HcGrantTransfer(dom0_, 5, guest_, *ref).error(), Err::kBadHandle);
}

TEST_F(VmmTest, TransferRequiresTransferGrant) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 9, true);
  EXPECT_EQ(hv_.HcGrantTransfer(dom0_, 4, guest_, *ref).error(), Err::kPermissionDenied);
}

TEST_F(VmmTest, PageFlipCostIsSizeIndependent) {
  // Transfer cost is identical no matter how full the page is: this is the
  // mechanism behind E9's flat flip curve.
  auto ref1 = hv_.HcGrantTransferSlot(guest_, dom0_, 9);
  const uint64_t t0 = machine_.Now();
  ASSERT_TRUE(hv_.HcGrantTransfer(dom0_, 4, guest_, *ref1).ok());
  const uint64_t cost_empty = machine_.Now() - t0;

  std::vector<uint8_t> full(machine_.memory().page_size(), 0xFF);
  PokePfn(dom0_, 5, full);
  auto ref2 = hv_.HcGrantTransferSlot(guest_, dom0_, 10);
  const uint64_t t1 = machine_.Now();
  ASSERT_TRUE(hv_.HcGrantTransfer(dom0_, 5, guest_, *ref2).ok());
  EXPECT_EQ(machine_.Now() - t1, cost_empty);
}

// --- Paravirtual page tables ------------------------------------------------------

TEST_F(VmmTest, MmuUpdateMapsOwnFrames) {
  std::vector<MmuUpdate> updates = {{0x1000, 3, true, true}};
  ASSERT_EQ(hv_.HcMmuUpdate(guest_, updates), Err::kNone);
  Domain* g = hv_.FindDomain(guest_);
  const hwsim::Pte* pte = g->space.Walk(0x1000);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->present);
  EXPECT_EQ(pte->frame, *g->MfnOf(3));
}

TEST_F(VmmTest, MmuUpdateRejectsHypervisorHole) {
  std::vector<MmuUpdate> updates = {{kHoleBase + 0x1000, 3, true, true}};
  EXPECT_EQ(hv_.HcMmuUpdate(guest_, updates), Err::kPermissionDenied);
}

TEST_F(VmmTest, MmuUpdateRejectsForeignFrames) {
  std::vector<MmuUpdate> updates = {{0x1000, 1000, true, true}};
  EXPECT_EQ(hv_.HcMmuUpdate(guest_, updates), Err::kOutOfRange);
}

TEST_F(VmmTest, MmuUpdateRejectsFlippedAwayFrame) {
  // Flip guest pfn 9 away, then try to map it: ownership check must fail.
  auto ref = hv_.HcGrantTransferSlot(guest_, dom0_, 9);
  // Swap: guest's frame at pfn 9 now belongs to... after transfer the
  // guest's pfn 9 holds dom0's old frame (owned by guest), so map pfn 9 is
  // fine. Instead map dom0's view: dom0 maps pfn 4 which now holds a frame
  // owned by dom0 — also fine. To get a stale mapping attempt, record the
  // guest pfn->mfn, flip, then restore the p2m entry artificially.
  Domain* g = hv_.FindDomain(guest_);
  const hwsim::Frame old_frame = *g->MfnOf(9);
  ASSERT_TRUE(hv_.HcGrantTransfer(dom0_, 4, guest_, *ref).ok());
  g->p2m[9] = old_frame;  // stale (now dom0-owned) frame
  std::vector<MmuUpdate> updates = {{0x1000, 9, true, true}};
  EXPECT_EQ(hv_.HcMmuUpdate(guest_, updates), Err::kPermissionDenied);
}

TEST_F(VmmTest, MmuUpdateBatchIsAtomic) {
  std::vector<MmuUpdate> updates = {{0x1000, 3, true, true},
                                    {kHoleBase, 4, true, true}};
  EXPECT_EQ(hv_.HcMmuUpdate(guest_, updates), Err::kPermissionDenied);
  Domain* g = hv_.FindDomain(guest_);
  const hwsim::Pte* pte = g->space.Walk(0x1000);
  EXPECT_TRUE(pte == nullptr || !pte->present);  // nothing applied
}

TEST_F(VmmTest, MmuUpdateUnmaps) {
  std::vector<MmuUpdate> map = {{0x1000, 3, true, true}};
  ASSERT_EQ(hv_.HcMmuUpdate(guest_, map), Err::kNone);
  std::vector<MmuUpdate> unmap = {{0x1000, 0, false, false}};
  ASSERT_EQ(hv_.HcMmuUpdate(guest_, unmap), Err::kNone);
  Domain* g = hv_.FindDomain(guest_);
  EXPECT_FALSE(g->space.Walk(0x1000)->present);
}

// --- Exception virtualisation ------------------------------------------------------

TEST_F(VmmTest, SyscallFastPathWhenSegmentsExclude) {
  int syscalls = 0;
  ASSERT_EQ(hv_.HcSetTrapTable(
                guest_,
                [&](hwsim::TrapFrame& f) {
                  ++syscalls;
                  return f.regs[0] + 1;
                },
                nullptr, /*request_fast_trap=*/true),
            Err::kNone);
  Domain* g = hv_.FindDomain(guest_);
  EXPECT_TRUE(g->fast_trap_enabled);

  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kSyscall;
  frame.regs[0] = 41;
  EXPECT_EQ(hv_.GuestSyscall(guest_, frame), 42u);
  EXPECT_EQ(syscalls, 1);
  EXPECT_EQ(g->syscalls_fast, 1u);
  EXPECT_EQ(g->syscalls_reflected, 0u);
}

TEST_F(VmmTest, GlibcSegmentRevokesFastPath) {
  ASSERT_EQ(hv_.HcSetTrapTable(
                guest_, [](hwsim::TrapFrame& f) { return f.regs[0]; }, nullptr, true),
            Err::kNone);
  Domain* g = hv_.FindDomain(guest_);
  ASSERT_TRUE(g->fast_trap_enabled);

  // glibc loads a flat GS for TLS: the shortcut must be revoked.
  hwsim::SegmentDescriptor flat;
  flat.limit = uint64_t{1} << 32;
  ASSERT_EQ(hv_.HcSetSegment(guest_, hwsim::SegmentReg::kGs, flat), Err::kNone);
  EXPECT_FALSE(g->fast_trap_enabled);

  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kSyscall;
  (void)hv_.GuestSyscall(guest_, frame);
  EXPECT_EQ(g->syscalls_reflected, 1u);
  EXPECT_EQ(g->syscalls_fast, 0u);

  // Restoring a truncated segment re-arms it.
  flat.limit = kHoleBase;
  ASSERT_EQ(hv_.HcSetSegment(guest_, hwsim::SegmentReg::kGs, flat), Err::kNone);
  EXPECT_TRUE(g->fast_trap_enabled);
}

TEST_F(VmmTest, ReflectedSyscallCostsMoreThanFast) {
  ASSERT_EQ(hv_.HcSetTrapTable(
                guest_, [](hwsim::TrapFrame& f) { return f.regs[0]; }, nullptr, true),
            Err::kNone);
  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kSyscall;

  uint64_t t0 = machine_.Now();
  (void)hv_.GuestSyscall(guest_, frame);
  const uint64_t fast_cost = machine_.Now() - t0;

  hwsim::SegmentDescriptor flat;
  flat.limit = uint64_t{1} << 32;
  ASSERT_EQ(hv_.HcSetSegment(guest_, hwsim::SegmentReg::kGs, flat), Err::kNone);
  t0 = machine_.Now();
  (void)hv_.GuestSyscall(guest_, frame);
  const uint64_t slow_cost = machine_.Now() - t0;

  EXPECT_GT(slow_cost, 2 * fast_cost);
}

TEST_F(VmmTest, FastPathUnavailableWithoutSegmentation) {
  Machine arm(hwsim::MakeArmPlatform(), 4 << 20);
  Hypervisor hv(arm);
  auto guest = hv.CreateDomain("g", 16, false);
  ASSERT_TRUE(guest.ok());
  ASSERT_EQ(hv.HcSetTrapTable(
                *guest, [](hwsim::TrapFrame& f) { return f.regs[0]; }, nullptr, true),
            Err::kNone);
  EXPECT_FALSE(hv.FindDomain(*guest)->fast_trap_enabled);
}

TEST_F(VmmTest, GuestExceptionReflects) {
  int exceptions = 0;
  ASSERT_EQ(hv_.HcSetExceptionHandler(guest_,
                                      [&](hwsim::TrapFrame& f) {
                                        ++exceptions;
                                        EXPECT_EQ(f.vector, hwsim::TrapVector::kDivideError);
                                        return Err::kNone;
                                      }),
            Err::kNone);
  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kDivideError;
  EXPECT_EQ(hv_.GuestException(guest_, frame), Err::kNone);
  EXPECT_EQ(exceptions, 1);
  EXPECT_EQ(hv_.FindDomain(guest_)->exceptions_reflected, 1u);
  EXPECT_EQ(machine_.ledger().StatsFor("xen.exc.reflect").count, 1u);
}

TEST_F(VmmTest, UnhandledGuestExceptionAborts) {
  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kInvalidOpcode;
  EXPECT_EQ(hv_.GuestException(guest_, frame), Err::kAborted);
}

TEST_F(VmmTest, RaisedTrapRoutesToGuestException) {
  bool seen = false;
  ASSERT_EQ(hv_.HcSetExceptionHandler(guest_,
                                      [&](hwsim::TrapFrame&) {
                                        seen = true;
                                        return Err::kNone;
                                      }),
            Err::kNone);
  hv_.sched().SwitchTo(*hv_.FindDomain(guest_), hwsim::PrivLevel::kUser);
  hwsim::TrapFrame frame;
  frame.vector = hwsim::TrapVector::kGeneralProtection;
  machine_.RaiseTrap(frame);
  EXPECT_TRUE(seen);
}

TEST_F(VmmTest, PageFaultAlwaysReflects) {
  int faults = 0;
  ASSERT_EQ(hv_.HcSetTrapTable(
                guest_, nullptr,
                [&](hwsim::Vaddr, bool) {
                  ++faults;
                  return Err::kNone;
                },
                false),
            Err::kNone);
  EXPECT_EQ(hv_.GuestPageFault(guest_, 0x1234, false), Err::kNone);
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(machine_.ledger().StatsFor("xen.pf.reflect").count, 1u);
}

// --- Interrupt routing ---------------------------------------------------------------

TEST_F(VmmTest, HardwareIrqRoutedToBoundDomain) {
  std::vector<uint32_t> upcalls;
  ASSERT_EQ(hv_.HcSetUpcall(dom0_, [&](uint32_t port) { upcalls.push_back(port); }), Err::kNone);
  auto port = hv_.HcEvtchnAllocUnbound(dom0_, dom0_);
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(hv_.HcBindIrq(dom0_, IrqLine(5), *port), Err::kNone);

  machine_.irq_controller().Assert(IrqLine(5));
  machine_.DeliverPendingInterrupts();
  ASSERT_EQ(upcalls.size(), 1u);
  EXPECT_EQ(upcalls[0], *port);
  EXPECT_EQ(machine_.ledger().StatsFor("xen.virq").count, 1u);
}

TEST_F(VmmTest, UnprivilegedDomainCannotBindIrq) {
  auto port = hv_.HcEvtchnAllocUnbound(guest_, guest_);
  ASSERT_TRUE(port.ok());
  EXPECT_EQ(hv_.HcBindIrq(guest_, IrqLine(5), *port), Err::kPermissionDenied);
}

TEST_F(VmmTest, HypercallsAreCountedPerDomain) {
  (void)hv_.HcSchedYield(guest_);
  (void)hv_.HcConsoleIo(guest_, "hello");
  Domain* g = hv_.FindDomain(guest_);
  EXPECT_EQ(g->hypercalls, 2u);
  EXPECT_EQ(hv_.HypercallCountOf(HypercallNr::kSchedOp), 1u);
  EXPECT_EQ(hv_.HypercallCountOf(HypercallNr::kConsoleIo), 1u);
  EXPECT_EQ(machine_.ledger().StatsFor("xen.hypercall").count, 2u);
  ASSERT_EQ(hv_.console_log().size(), 1u);
  EXPECT_EQ(hv_.console_log()[0], "DomU: hello");
}

TEST_F(VmmTest, HypercallTableIsThirteenEntries) {
  // §2.2's "rich variety of primitives", pinned as a compile-time fact.
  // Twelve classic entries plus multicall — the batching entry real Xen
  // also grew, and itself a data point for the "rich ABI" contrast.
  EXPECT_EQ(kHypercallCount, 14u);
}

TEST_F(VmmTest, DestroyedDomainRejectsHypercalls) {
  ASSERT_EQ(hv_.DestroyDomain(guest_), Err::kNone);
  EXPECT_EQ(hv_.HcSchedYield(guest_), Err::kBadHandle);
}

TEST_F(VmmTest, EveryHypercallFromADeadOrUnknownDomainIsFreeAndUncounted) {
  // The hypercall scope's early-out, on all 23 entry points: a destroyed
  // domain and a never-created id each get kBadHandle, and the call
  // charges no cycle, records no crossing and counts no hypercall.
  using HcFn = Err (*)(Hypervisor&, DomainId);
  const std::pair<const char*, HcFn> calls[] = {
      {"HcSetTrapTable",
       [](Hypervisor& hv, DomainId d) { return hv.HcSetTrapTable(d, nullptr, nullptr, true); }},
      {"HcSetUpcall", [](Hypervisor& hv, DomainId d) { return hv.HcSetUpcall(d, nullptr); }},
      {"HcSetDomainDeadHandler",
       [](Hypervisor& hv, DomainId d) { return hv.HcSetDomainDeadHandler(d, nullptr); }},
      {"HcSetExceptionHandler",
       [](Hypervisor& hv, DomainId d) { return hv.HcSetExceptionHandler(d, nullptr); }},
      {"HcSetSegment",
       [](Hypervisor& hv, DomainId d) {
         return hv.HcSetSegment(d, hwsim::SegmentReg::kFs, hwsim::SegmentDescriptor{});
       }},
      {"HcMmuUpdate",
       [](Hypervisor& hv, DomainId d) {
         const MmuUpdate update{0x1000, 1, true, true};
         return hv.HcMmuUpdate(d, {&update, 1});
       }},
      {"HcEvtchnAllocUnbound",
       [](Hypervisor& hv, DomainId d) { return ukvm::GetErr(hv.HcEvtchnAllocUnbound(d, d)); }},
      {"HcEvtchnBind",
       [](Hypervisor& hv, DomainId d) { return ukvm::GetErr(hv.HcEvtchnBind(d, d, 1)); }},
      {"HcEvtchnSend", [](Hypervisor& hv, DomainId d) { return hv.HcEvtchnSend(d, 1); }},
      {"HcEvtchnClose", [](Hypervisor& hv, DomainId d) { return hv.HcEvtchnClose(d, 1); }},
      {"HcEvtchnMask", [](Hypervisor& hv, DomainId d) { return hv.HcEvtchnMask(d, 1, true); }},
      {"HcGrantAccess",
       [](Hypervisor& hv, DomainId d) { return ukvm::GetErr(hv.HcGrantAccess(d, d, 1, true)); }},
      {"HcGrantTransferSlot",
       [](Hypervisor& hv, DomainId d) { return ukvm::GetErr(hv.HcGrantTransferSlot(d, d, 1)); }},
      {"HcGrantEnd", [](Hypervisor& hv, DomainId d) { return hv.HcGrantEnd(d, 0); }},
      {"HcGrantMap",
       [](Hypervisor& hv, DomainId d) { return hv.HcGrantMap(d, d, 0, 0xE0000000, true); }},
      {"HcGrantUnmap",
       [](Hypervisor& hv, DomainId d) { return hv.HcGrantUnmap(d, d, 0, 0xE0000000); }},
      {"HcGrantCopy",
       [](Hypervisor& hv, DomainId d) { return hv.HcGrantCopy(d, d, 0, 0, 1, 0, 64, true); }},
      {"HcGrantTransfer",
       [](Hypervisor& hv, DomainId d) { return ukvm::GetErr(hv.HcGrantTransfer(d, 1, d, 0)); }},
      {"HcTlbShootdown",
       [](Hypervisor& hv, DomainId d) {
         const hwsim::Vaddr va = 0x1000;
         return hv.HcTlbShootdown(d, {&va, 1});
       }},
      {"HcMulticall",
       [](Hypervisor& hv, DomainId d) {
         const MulticallOp op;  // an event-channel send
         const MulticallOutcome out = hv.HcMulticall(d, {&op, 1});
         EXPECT_TRUE(out.results.empty());
         return out.status;
       }},
      {"HcBindIrq", [](Hypervisor& hv, DomainId d) { return hv.HcBindIrq(d, IrqLine(5), 1); }},
      {"HcConsoleIo", [](Hypervisor& hv, DomainId d) { return hv.HcConsoleIo(d, "x"); }},
      {"HcSchedYield", [](Hypervisor& hv, DomainId d) { return hv.HcSchedYield(d); }},
  };
  ASSERT_EQ(std::size(calls), 23u);
  ASSERT_EQ(hv_.DestroyDomain(guest_), Err::kNone);
  for (const DomainId dom : {guest_, DomainId{999}}) {
    for (const auto& [name, call] : calls) {
      SCOPED_TRACE(std::string(name) + " from domain " + std::to_string(dom.value()));
      const uint64_t now = machine_.Now();
      const uint64_t crossings = machine_.ledger().total_count();
      const uint64_t hypercalls = hv_.total_hypercalls();
      const uint64_t subops = hv_.multicall_subops();
      EXPECT_EQ(call(hv_, dom), Err::kBadHandle);
      EXPECT_EQ(machine_.Now(), now);
      EXPECT_EQ(machine_.ledger().total_count(), crossings);
      EXPECT_EQ(hv_.total_hypercalls(), hypercalls);
      EXPECT_EQ(hv_.multicall_subops(), subops);
    }
  }
  EXPECT_EQ(hv_.FindDomain(guest_)->hypercalls, 0u);
  EXPECT_TRUE(hv_.console_log().empty());
}

TEST_F(VmmTest, DestroyDropsGrantsAndChannels) {
  auto ref = hv_.HcGrantAccess(guest_, dom0_, 5, true);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(hv_.DestroyDomain(guest_), Err::kNone);
  EXPECT_EQ(hv_.HcGrantMap(dom0_, guest_, *ref, 0xE0000000, true), Err::kBadHandle);
}

// --- Credit scheduler -------------------------------------------------------

TEST_F(VmmTest, CreditRunnerSharesTrackWeights) {
  hv_.sched().SetWeight(dom0_, 512);
  hv_.sched().SetWeight(guest_, 256);
  CreditRunner runner(machine_, hv_.sched());
  int a_left = 1000, b_left = 1000;
  bool sampled = false;
  uint64_t a_at_first = 0, b_at_first = 0;
  runner.Add(hv_.FindDomain(dom0_), [&] {
    machine_.Charge(20 * hwsim::kCyclesPerUs);
    const bool done = --a_left <= 0;
    if (done && !sampled) {
      sampled = true;
      a_at_first = runner.ConsumedBy(dom0_);
      b_at_first = runner.ConsumedBy(guest_);
    }
    return done;
  });
  runner.Add(hv_.FindDomain(guest_), [&] {
    machine_.Charge(20 * hwsim::kCyclesPerUs);
    const bool done = --b_left <= 0;
    if (done && !sampled) {
      sampled = true;
      a_at_first = runner.ConsumedBy(dom0_);
      b_at_first = runner.ConsumedBy(guest_);
    }
    return done;
  });
  runner.Run();
  // Everyone finished (work-conserving) ...
  EXPECT_EQ(a_left, 0);
  EXPECT_EQ(b_left, 0);
  // ... and during the competitive phase the 2:1 weights show as ~2:1 CPU.
  ASSERT_GT(b_at_first, 0u);
  const double ratio = static_cast<double>(a_at_first) / static_cast<double>(b_at_first);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.6);
}

TEST_F(VmmTest, CreditRunnerEqualWeightsInterleave) {
  CreditRunner runner(machine_, hv_.sched());
  std::vector<int> order;
  int a_left = 50, b_left = 50;
  runner.Add(hv_.FindDomain(dom0_), [&] {
    machine_.Charge(20 * hwsim::kCyclesPerUs);
    order.push_back(0);
    return --a_left <= 0;
  });
  runner.Add(hv_.FindDomain(guest_), [&] {
    machine_.Charge(20 * hwsim::kCyclesPerUs);
    order.push_back(1);
    return --b_left <= 0;
  });
  runner.Run();
  ASSERT_EQ(order.size(), 100u);
  // Neither guest monopolises the first half of the run.
  int a_early = 0;
  for (size_t i = 0; i < 50; ++i) {
    a_early += order[i] == 0 ? 1 : 0;
  }
  EXPECT_GT(a_early, 10);
  EXPECT_LT(a_early, 40);
}

}  // namespace
}  // namespace uvmm
