// Tests for the batched datapath (E16): multicall abort semantics, event
// coalescing, grant recycling, TLB salt identity, and the end-to-end
// guarantee that batching changes cost but never content.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/stacks/vmm_stack.h"
#include "src/vmm/hypervisor.h"
#include "src/workloads/netio.h"

namespace {

using ukvm::DomainId;
using ukvm::Err;
using uvmm::MulticallOp;

class MulticallTest : public ::testing::Test {
 protected:
  MulticallTest() : machine_(hwsim::MakeX86Platform(), 8 << 20), hv_(machine_) {
    auto dom0 = hv_.CreateDomain("Dom0", 64, /*privileged=*/true);
    EXPECT_TRUE(dom0.ok());
    dom0_ = *dom0;
    auto guest = hv_.CreateDomain("DomU", 64, /*privileged=*/false);
    EXPECT_TRUE(guest.ok());
    guest_ = *guest;
    machine_.cpu().SetInterruptsEnabled(true);
  }

  static MulticallOp GrantAccessOp(DomainId grantee, uvmm::Pfn pfn) {
    MulticallOp op;
    op.kind = MulticallOp::Kind::kGrantAccess;
    op.peer = grantee;
    op.pfn = pfn;
    op.flag = true;
    return op;
  }

  hwsim::Machine machine_;
  uvmm::Hypervisor hv_;
  DomainId dom0_;
  DomainId guest_;
};

TEST_F(MulticallTest, AbortsOnFirstFailureAndKeepsPrefixApplied) {
  // Sub-op 2 (an event send to a port that does not exist) fails; Xen
  // semantics require sub-ops [0, 2) to be applied and stay applied, and
  // sub-op 3 to never run.
  MulticallOp bad;
  bad.kind = MulticallOp::Kind::kEvtchnSend;
  bad.port = 9999;
  const std::vector<MulticallOp> ops = {
      GrantAccessOp(dom0_, 1),
      GrantAccessOp(dom0_, 2),
      bad,
      GrantAccessOp(dom0_, 3),
  };
  const auto out = hv_.HcMulticall(guest_, ops);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.completed, 2u);
  ASSERT_EQ(out.results.size(), 3u);  // the aborted op reports; op 3 never ran
  EXPECT_EQ(out.results[0].status, Err::kNone);
  EXPECT_EQ(out.results[1].status, Err::kNone);
  EXPECT_NE(out.results[2].status, Err::kNone);
  EXPECT_EQ(out.status, out.results[2].status);

  // The completed grants are live (ending them succeeds exactly once).
  EXPECT_EQ(hv_.HcGrantEnd(guest_, static_cast<uint32_t>(out.results[0].value)), Err::kNone);
  EXPECT_EQ(hv_.HcGrantEnd(guest_, static_cast<uint32_t>(out.results[1].value)), Err::kNone);
}

TEST_F(MulticallTest, WholeBatchIsOneHypercallEntryAndExit) {
  const std::vector<MulticallOp> ops = {
      GrantAccessOp(dom0_, 1),
      GrantAccessOp(dom0_, 2),
      GrantAccessOp(dom0_, 3),
  };
  auto& ledger = machine_.ledger();
  const uint64_t hc_before = hv_.total_hypercalls();
  const uint64_t sub_before = hv_.multicall_subops();
  const uint64_t entries_before = ledger.StatsFor("xen.hypercall").count;
  const uint64_t returns_before = ledger.StatsFor("xen.hypercall.return").count;

  const auto out = hv_.HcMulticall(guest_, ops);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.completed, 3u);

  // One entry, one exit, three sub-ops — the ledger must show a single
  // balanced crossing pair, not three.
  EXPECT_EQ(hv_.total_hypercalls() - hc_before, 1u);
  EXPECT_EQ(hv_.multicall_subops() - sub_before, 3u);
  EXPECT_EQ(ledger.StatsFor("xen.hypercall").count - entries_before, 1u);
  EXPECT_EQ(ledger.StatsFor("xen.hypercall.return").count - returns_before, 1u);
}

TEST_F(MulticallTest, EmptyBatchSucceedsTrivially) {
  const auto out = hv_.HcMulticall(guest_, {});
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.completed, 0u);
  EXPECT_TRUE(out.results.empty());
}

TEST_F(MulticallTest, MaskedPortCoalescesRepeatSends) {
  auto port = hv_.HcEvtchnAllocUnbound(dom0_, guest_);
  ASSERT_TRUE(port.ok());
  auto guest_port = hv_.HcEvtchnBind(guest_, dom0_, *port);
  ASSERT_TRUE(guest_port.ok());
  ASSERT_EQ(hv_.HcEvtchnMask(dom0_, *port, true), Err::kNone);
  const uint64_t before = hv_.evtchn().coalesced_sends();
  ASSERT_EQ(hv_.HcEvtchnSend(guest_, *guest_port), Err::kNone);  // latches pending
  ASSERT_EQ(hv_.HcEvtchnSend(guest_, *guest_port), Err::kNone);  // absorbed by the bit
  ASSERT_EQ(hv_.HcEvtchnSend(guest_, *guest_port), Err::kNone);
  EXPECT_EQ(hv_.evtchn().coalesced_sends() - before, 2u);
}

TEST(TlbSalt, IdentitiesAreDistinctAndNeverReused) {
  auto a = std::make_unique<hwsim::PageTable>(12, 32);
  hwsim::PageTable b(12, 32);
  const uint64_t salt_a = a->tlb_salt();
  EXPECT_NE(salt_a, 0u);  // 0 stays the untagged salt
  EXPECT_LT(salt_a, b.tlb_salt());
  // Destroying a table must not let a successor reclaim its identity, even
  // if the allocator reuses the address (which a pointer hash would alias).
  a.reset();
  hwsim::PageTable c(12, 32);
  EXPECT_LT(b.tlb_salt(), c.tlb_salt());
  EXPECT_NE(c.tlb_salt(), salt_a);
}

// --- End-to-end: batching changes cost, not content --------------------------

// Runs the E3-style receive load and returns every payload byte the guest
// application read, in order.
std::vector<uint8_t> ReceiveAllBytes(uint32_t io_batch, ustack::RxMode mode,
                                     uint32_t count, uint32_t payload) {
  ustack::VmmStack::Config config;
  config.rx_mode = mode;
  config.io_batch = io_batch;
  ustack::VmmStack stack(config);
  if (io_batch > 1) {
    stack.nic_driver().SetInterruptMitigation(
        true, io_batch * 8 * hwsim::kCyclesPerUs);
  }
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  std::vector<uint8_t> bytes;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, payload, 8 * hwsim::kCyclesPerUs, count);
    stack.machine().RunUntilIdle();
    std::vector<uint8_t> buf(2048);
    for (;;) {
      const minios::SyscallRet n = os.NetRecv(*pid, 40, buf);
      if (n <= 0) {
        break;
      }
      bytes.insert(bytes.end(), buf.begin(), buf.begin() + n);
    }
  });
  return bytes;
}

TEST(BatchedDatapath, CoalescedDeliveryIsByteIdenticalToPerPacket) {
  constexpr uint32_t kCount = 24;
  constexpr uint32_t kPayload = 200;
  const auto unbatched = ReceiveAllBytes(1, ustack::RxMode::kPageFlip, kCount, kPayload);
  const auto batched = ReceiveAllBytes(16, ustack::RxMode::kPageFlip, kCount, kPayload);

  ASSERT_EQ(unbatched.size(), size_t{kCount} * kPayload);
  EXPECT_EQ(batched, unbatched);
  // And both match the wire pattern packet by packet, in arrival order.
  for (uint32_t seq = 0; seq < kCount; ++seq) {
    for (uint32_t i = 0; i < kPayload; ++i) {
      ASSERT_EQ(batched[size_t{seq} * kPayload + i], uwork::WireHost::PatternByte(seq, i))
          << "packet " << seq << " byte " << i;
    }
  }
}

TEST(BatchedDatapath, GrantCopyModeIsAlsoByteIdentical) {
  constexpr uint32_t kCount = 24;
  constexpr uint32_t kPayload = 200;
  const auto unbatched = ReceiveAllBytes(1, ustack::RxMode::kGrantCopy, kCount, kPayload);
  const auto batched = ReceiveAllBytes(16, ustack::RxMode::kGrantCopy, kCount, kPayload);
  ASSERT_EQ(unbatched.size(), size_t{kCount} * kPayload);
  EXPECT_EQ(batched, unbatched);
}

// The perf claim behind E16, pinned as a test: at batch 16 the Dom0 cost per
// delivered packet is at least half off (one multicall, one notification and
// one deferred TLB flush per burst instead of per packet).
uint64_t Dom0CyclesPerPacket(uint32_t io_batch) {
  constexpr uint32_t kCount = 200;
  ustack::VmmStack::Config config;
  config.io_batch = io_batch;
  ustack::VmmStack stack(config);
  if (io_batch > 1) {
    stack.nic_driver().SetInterruptMitigation(
        true, io_batch * 8 * hwsim::kCyclesPerUs);
  }
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  uint64_t per_packet = 0;
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    const uint64_t before = stack.machine().accounting().CyclesOf(stack.dom0());
    wire.StartStream(40, 1460, 8 * hwsim::kCyclesPerUs, kCount);
    stack.machine().RunUntilIdle();
    std::vector<uint8_t> buf(2048);
    uint64_t received = 0;
    while (os.NetRecv(*pid, 40, buf) > 0) {
      ++received;
    }
    ASSERT_GT(received, 0u);
    per_packet = (stack.machine().accounting().CyclesOf(stack.dom0()) - before) / received;
  });
  return per_packet;
}

TEST(BatchedDatapath, BatchSixteenHalvesDom0CostPerPacket) {
  const uint64_t unbatched = Dom0CyclesPerPacket(1);
  const uint64_t batched = Dom0CyclesPerPacket(16);
  ASSERT_GT(unbatched, 0u);
  ASSERT_GT(batched, 0u);
  EXPECT_LT(batched * 2, unbatched)
      << "batch 16 must at least halve Dom0 cycles/packet (got " << unbatched << " -> "
      << batched << ")";
}

// --- Grant recycling ---------------------------------------------------------

TEST(PersistentGrants, BlkFrontReusesGrantsOnceThePoolWraps) {
  ustack::VmmStack::Config config;
  config.persistent_grants = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> buf(front.block_size());
  // The frontend rotates through an 8-pfn pool; past one lap every request
  // hits the gref cache instead of minting (and ending) a fresh grant, and
  // the backend's mapping cache keeps the page mapped across requests.
  for (int i = 0; i < 24; ++i) {
    ASSERT_EQ(front.Read(0, 1, buf), Err::kNone);
  }
  EXPECT_GT(front.grants().hits(), 0u);
  EXPECT_GT(stack.blkback().mappings().hits(), 0u);
}

TEST(PersistentGrants, DisabledByDefault) {
  ustack::VmmStack stack;
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> buf(front.block_size());
  for (int i = 0; i < 24; ++i) {
    ASSERT_EQ(front.Read(0, 1, buf), Err::kNone);
  }
  EXPECT_EQ(front.grants().hits(), 0u);
  EXPECT_EQ(stack.blkback().mappings().hits(), 0u);
}

// --- The auditor stays clean under the batched datapath ----------------------

TEST(BatchedDatapath, BatchedPersistentStackAuditsClean) {
  ustack::VmmStack::Config config;
  config.io_batch = 16;
  config.persistent_grants = true;
  ustack::VmmStack stack(config);
  ASSERT_NE(stack.auditor(), nullptr);
  stack.nic_driver().SetInterruptMitigation(true, 16 * 8 * hwsim::kCyclesPerUs);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  ASSERT_EQ(stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    auto pid = os.Spawn("rx");
    ASSERT_EQ(os.NetBind(*pid, 40), 0);
    wire.StartStream(40, 512, 8 * hwsim::kCyclesPerUs, 48);
    stack.machine().RunUntilIdle();
    std::vector<uint8_t> buf(2048);
    while (os.NetRecv(*pid, 40, buf) > 0) {
    }
  }), Err::kNone);
  stack.machine().RunUntilIdle();
  stack.auditor()->Checkpoint("end");
  for (const std::string& report : stack.auditor()->ViolationReports()) {
    ADD_FAILURE() << report;
  }
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
}

}  // namespace
