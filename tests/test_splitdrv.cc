// Direct unit tests for the split-driver plumbing: descriptor rings, the
// upcall port mux, and the netfront/netback + blkfront/blkback pairs wired
// to a hand-built hypervisor world (the full stacks are covered in
// test_stacks.cc).

#include <gtest/gtest.h>

#include "src/drivers/disk_driver.h"
#include "src/drivers/nic_driver.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/net_protocol.h"
#include "src/os/netstack.h"
#include "src/stacks/blksplit.h"
#include "src/stacks/netsplit.h"
#include "src/stacks/port_mux.h"
#include "src/stacks/xenring.h"
#include "src/vmm/hypervisor.h"

namespace {

using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;

TEST(XenRing, FifoAndCapacity) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 1 << 20);
  ustack::XenRing<int, int> ring(machine, 2);
  EXPECT_TRUE(ring.PushRequest(1));
  EXPECT_TRUE(ring.PushRequest(2));
  EXPECT_FALSE(ring.PushRequest(3));  // full
  EXPECT_EQ(*ring.PopRequest(), 1);
  EXPECT_EQ(*ring.PopRequest(), 2);
  EXPECT_FALSE(ring.PopRequest().has_value());
  EXPECT_TRUE(ring.PushResponse(9));
  EXPECT_EQ(*ring.PopResponse(), 9);
}

TEST(XenRing, DescriptorCopiesAreCharged) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 1 << 20);
  ustack::XenRing<uint64_t, uint64_t> ring(machine, 8);
  const uint64_t t0 = machine.Now();
  ring.PushRequest(1);
  (void)ring.PopRequest();
  EXPECT_GT(machine.Now(), t0);
}

TEST(PortMux, RoutesAndIgnoresUnknown) {
  ustack::PortMux mux;
  int a = 0, b = 0;
  mux.Route(1, [&] { ++a; });
  mux.Route(2, [&] { ++b; });
  mux.Dispatch(1);
  mux.Dispatch(2);
  mux.Dispatch(2);
  mux.Dispatch(99);  // unknown: no crash
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  auto upcall = mux.AsUpcall();
  upcall(1);
  EXPECT_EQ(a, 2);
}

// A hand-built two-domain world with a NIC and a disk for the backends.
class SplitDrvTest : public ::testing::Test {
 protected:
  SplitDrvTest()
      : machine_(hwsim::MakeX86Platform(), 32 << 20),
        nic_(machine_, IrqLine(5), {}),
        disk_(machine_, IrqLine(6), {}),
        hv_(machine_) {
    dom0_ = *hv_.CreateDomain("Dom0", 256, true);
    guest_ = *hv_.CreateDomain("DomU", 256, false);
    (void)hv_.HcSetUpcall(dom0_, dom0_mux_.AsUpcall());
    (void)hv_.HcSetUpcall(guest_, guest_mux_.AsUpcall());

    // Dom0's NIC driver over its own frames.
    uvmm::Domain* d0 = hv_.FindDomain(dom0_);
    std::vector<hwsim::Frame> pool(d0->p2m.begin(), d0->p2m.begin() + 32);
    nic_driver_ = std::make_unique<udrv::NicDriver>(machine_, nic_, pool);
    disk_driver_ = std::make_unique<udrv::DiskDriver>(machine_, disk_);

    auto nic_port = hv_.HcEvtchnAllocUnbound(dom0_, dom0_);
    dom0_mux_.Route(*nic_port, [this] { nic_driver_->OnInterrupt(); });
    (void)hv_.HcBindIrq(dom0_, nic_.line(), *nic_port);
    auto disk_port = hv_.HcEvtchnAllocUnbound(dom0_, dom0_);
    dom0_mux_.Route(*disk_port, [this] { disk_driver_->OnInterrupt(); });
    (void)hv_.HcBindIrq(dom0_, disk_.line(), *disk_port);
    machine_.cpu().SetInterruptsEnabled(true);
  }

  std::vector<uvmm::Pfn> GuestPfns(uvmm::Pfn from, uvmm::Pfn to) {
    std::vector<uvmm::Pfn> out;
    for (uvmm::Pfn p = from; p < to; ++p) {
      out.push_back(p);
    }
    return out;
  }

  hwsim::Machine machine_;
  hwsim::Nic nic_;
  hwsim::Disk disk_;
  uvmm::Hypervisor hv_;
  DomainId dom0_, guest_;
  ustack::PortMux dom0_mux_, guest_mux_;
  minios::NetRoutes routes_;  // none: every packet goes to the first channel
  std::unique_ptr<udrv::NicDriver> nic_driver_;
  std::unique_ptr<udrv::DiskDriver> disk_driver_;
};

TEST_F(SplitDrvTest, NetTxGoesOutZeroCopy) {
  ustack::NetBack back(machine_, hv_, dom0_, *nic_driver_, ustack::RxMode::kPageFlip,
                       dom0_mux_, routes_);
  nic_driver_->SetRxCallback(
      [&back](hwsim::Frame f, uint32_t len) { back.OnPacketReceived(f, len); });
  ustack::NetFront front(machine_, hv_, guest_, GuestPfns(100, 164), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);

  std::vector<std::vector<uint8_t>> wire;
  nic_.SetPeer([&](std::vector<uint8_t> p) { wire.push_back(std::move(p)); });

  std::vector<uint8_t> packet = minios::BuildPacket(80, 7, std::vector<uint8_t>{1, 2, 3});
  ASSERT_EQ(front.Send(packet), Err::kNone);
  machine_.RunUntilIdle();
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0], packet);
  EXPECT_EQ(back.tx_packets(), 1u);
  // The tx grant was returned: a second send works too.
  ASSERT_EQ(front.Send(packet), Err::kNone);
  machine_.RunUntilIdle();
  EXPECT_EQ(wire.size(), 2u);
}

TEST_F(SplitDrvTest, NetRxFlipDeliversIntactPayload) {
  ustack::NetBack back(machine_, hv_, dom0_, *nic_driver_, ustack::RxMode::kPageFlip,
                       dom0_mux_, routes_);
  nic_driver_->SetRxCallback(
      [&back](hwsim::Frame f, uint32_t len) { back.OnPacketReceived(f, len); });
  ustack::NetFront front(machine_, hv_, guest_, GuestPfns(100, 164), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);

  std::vector<std::vector<uint8_t>> got;
  front.SetRecvHandler([&](std::span<const uint8_t> p) {
    got.emplace_back(p.begin(), p.end());
  });

  std::vector<uint8_t> payload(777);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 3);
  }
  const auto packet = minios::BuildPacket(40, 9, payload);
  nic_.InjectPacket(packet);
  machine_.RunUntilIdle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], packet);
  EXPECT_EQ(machine_.counters().Get("xen.page_flips"), 1u);
  EXPECT_EQ(back.rx_delivered(), 1u);
}

TEST_F(SplitDrvTest, NetRxSurvivesManyPackets) {
  // Slot replenishment must keep up across many flips.
  ustack::NetBack back(machine_, hv_, dom0_, *nic_driver_, ustack::RxMode::kPageFlip,
                       dom0_mux_, routes_);
  nic_driver_->SetRxCallback(
      [&back](hwsim::Frame f, uint32_t len) { back.OnPacketReceived(f, len); });
  ustack::NetFront front(machine_, hv_, guest_, GuestPfns(100, 164), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  size_t got = 0;
  front.SetRecvHandler([&](std::span<const uint8_t>) { ++got; });
  for (int i = 0; i < 100; ++i) {
    nic_.InjectPacket(minios::BuildPacket(40, 9, std::vector<uint8_t>(64)));
    machine_.RunUntilIdle();
  }
  EXPECT_EQ(got, 100u);
  EXPECT_EQ(machine_.counters().Get("xen.page_flips"), 100u);
}

TEST_F(SplitDrvTest, NetRxDroppedWithoutSlots) {
  ustack::NetBack back(machine_, hv_, dom0_, *nic_driver_, ustack::RxMode::kPageFlip,
                       dom0_mux_, routes_);
  nic_driver_->SetRxCallback(
      [&back](hwsim::Frame f, uint32_t len) { back.OnPacketReceived(f, len); });
  // A frontend with a tiny pool: 2 pfns -> 1 rx slot.
  ustack::NetFront front(machine_, hv_, guest_, GuestPfns(100, 102), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  front.SetRecvHandler([](std::span<const uint8_t>) {});
  // Flood without letting the guest consume: drops must be counted, not
  // crash.
  for (int i = 0; i < 5; ++i) {
    nic_.InjectPacket(minios::BuildPacket(40, 9, std::vector<uint8_t>(32)));
  }
  machine_.RunUntilIdle();
  EXPECT_GT(back.rx_dropped() + back.rx_delivered(), 0u);
}

TEST_F(SplitDrvTest, NetRxToDeadGuestDropped) {
  ustack::NetBack back(machine_, hv_, dom0_, *nic_driver_, ustack::RxMode::kPageFlip,
                       dom0_mux_, routes_);
  nic_driver_->SetRxCallback(
      [&back](hwsim::Frame f, uint32_t len) { back.OnPacketReceived(f, len); });
  ustack::NetFront front(machine_, hv_, guest_, GuestPfns(100, 164), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  ASSERT_EQ(hv_.DestroyDomain(guest_), Err::kNone);
  nic_.InjectPacket(minios::BuildPacket(40, 9, std::vector<uint8_t>(32)));
  machine_.RunUntilIdle();
  EXPECT_EQ(back.rx_delivered(), 0u);
  EXPECT_GE(back.rx_dropped(), 1u);
}

TEST_F(SplitDrvTest, BlkRoundTripThroughGrantMapping) {
  minios::BlkStore store(/*slice_blocks=*/1024, disk_.config().capacity_blocks);
  ustack::BlkBack back(machine_, hv_, dom0_, *disk_driver_, dom0_mux_, store);
  ustack::BlkFront front(machine_, hv_, guest_, GuestPfns(200, 208), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  EXPECT_EQ(front.capacity_blocks(), 1024u);
  EXPECT_EQ(front.block_size(), 512u);

  std::vector<uint8_t> data(2048);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_EQ(front.Write(10, 4, data), Err::kNone);
  std::vector<uint8_t> back_data(2048);
  ASSERT_EQ(front.Read(10, 4, back_data), Err::kNone);
  EXPECT_EQ(back_data, data);
  EXPECT_EQ(back.requests_served(), 2u);
}

TEST_F(SplitDrvTest, BlkSlicesAreDisjoint) {
  minios::BlkStore store(/*slice_blocks=*/64, disk_.config().capacity_blocks);
  ustack::BlkBack back(machine_, hv_, dom0_, *disk_driver_, dom0_mux_, store);
  auto guest2 = hv_.CreateDomain("DomU2", 64, false);
  ustack::PortMux mux2;
  (void)hv_.HcSetUpcall(*guest2, mux2.AsUpcall());

  ustack::BlkFront f1(machine_, hv_, guest_, GuestPfns(200, 204), guest_mux_);
  ASSERT_EQ(f1.Connect(back), Err::kNone);
  ustack::BlkFront f2(machine_, hv_, *guest2, {0, 1, 2, 3}, mux2);
  ASSERT_EQ(f2.Connect(back), Err::kNone);

  std::vector<uint8_t> a(512, 0xAA);
  std::vector<uint8_t> b(512, 0xBB);
  ASSERT_EQ(f1.Write(0, 1, a), Err::kNone);
  ASSERT_EQ(f2.Write(0, 1, b), Err::kNone);
  std::vector<uint8_t> check(512);
  ASSERT_EQ(f1.Read(0, 1, check), Err::kNone);
  EXPECT_EQ(check, a);  // f2's write landed in its own slice
  ASSERT_EQ(f2.Read(0, 1, check), Err::kNone);
  EXPECT_EQ(check, b);
}

TEST_F(SplitDrvTest, BlkOutOfSliceRejected) {
  minios::BlkStore store(/*slice_blocks=*/64, disk_.config().capacity_blocks);
  ustack::BlkBack back(machine_, hv_, dom0_, *disk_driver_, dom0_mux_, store);
  ustack::BlkFront front(machine_, hv_, guest_, GuestPfns(200, 204), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  std::vector<uint8_t> buf(512);
  EXPECT_NE(front.Read(64, 1, buf), Err::kNone);
  EXPECT_NE(front.Write(63, 2, std::vector<uint8_t>(1024)), Err::kNone);
}

TEST_F(SplitDrvTest, BlkRequestsToDeadBackendFail) {
  minios::BlkStore store(/*slice_blocks=*/64, disk_.config().capacity_blocks);
  ustack::BlkBack back(machine_, hv_, dom0_, *disk_driver_, dom0_mux_, store);
  ustack::BlkFront front(machine_, hv_, guest_, GuestPfns(200, 204), guest_mux_);
  ASSERT_EQ(front.Connect(back), Err::kNone);
  ASSERT_EQ(hv_.DestroyDomain(dom0_), Err::kNone);
  std::vector<uint8_t> buf(512);
  EXPECT_EQ(front.Read(0, 1, buf), Err::kDead);
}

}  // namespace
