// Tests for the simulated devices (NIC, disk) and their drivers.

#include <gtest/gtest.h>

#include "src/drivers/disk_driver.h"
#include "src/drivers/nic_driver.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace {

using hwsim::Disk;
using hwsim::Frame;
using hwsim::kCyclesPerUs;
using hwsim::Machine;
using hwsim::MakeX86Platform;
using hwsim::Nic;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;

class NicTest : public ::testing::Test {
 protected:
  NicTest() : machine_(MakeX86Platform(), 1 << 20), nic_(machine_, IrqLine(5), {}) {}

  Frame Alloc() {
    auto f = machine_.memory().AllocFrame(DomainId(1));
    EXPECT_TRUE(f.ok());
    return *f;
  }

  Machine machine_;
  Nic nic_;
};

TEST_F(NicTest, TransmitReachesPeerWithIntactPayload) {
  std::vector<std::vector<uint8_t>> received;
  nic_.SetPeer([&](std::vector<uint8_t> p) { received.push_back(std::move(p)); });
  const Frame frame = Alloc();
  std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
  machine_.memory().Write(machine_.memory().FrameBase(frame), payload);
  ASSERT_EQ(nic_.Transmit(machine_.memory().FrameBase(frame), 5), Err::kNone);
  machine_.RunUntilIdle();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], payload);
  EXPECT_EQ(nic_.tx_packets(), 1u);
}

TEST_F(NicTest, TransmitValidation) {
  EXPECT_EQ(nic_.Transmit(0, 0), Err::kInvalidArgument);
  EXPECT_EQ(nic_.Transmit(0, 5000), Err::kInvalidArgument);  // > MTU
  EXPECT_EQ(nic_.Transmit(machine_.memory().size_bytes() - 1, 100), Err::kOutOfRange);
}

TEST_F(NicTest, TxCompletionIrqFires) {
  const Frame frame = Alloc();
  ASSERT_EQ(nic_.Transmit(machine_.memory().FrameBase(frame), 64), Err::kNone);
  machine_.RunUntilIdle();
  auto completion = nic_.TakeTxCompletion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->len, 64u);
  EXPECT_GE(machine_.irq_controller().asserts(), 1u);
}

TEST_F(NicTest, InjectFillsPostedBuffer) {
  const Frame frame = Alloc();
  ASSERT_EQ(nic_.PostRxBuffer(machine_.memory().FrameBase(frame), 1514), Err::kNone);
  std::vector<uint8_t> packet = {1, 2, 3, 4};
  nic_.InjectPacket(packet);
  machine_.RunUntilIdle();
  auto completion = nic_.TakeRxCompletion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->len, 4u);
  std::vector<uint8_t> out(4);
  machine_.memory().Read(completion->addr, out);
  EXPECT_EQ(out, packet);
}

TEST_F(NicTest, InjectWithoutBufferDrops) {
  std::vector<uint8_t> packet = {1, 2, 3};
  nic_.InjectPacket(packet);
  EXPECT_EQ(nic_.rx_drops(), 1u);
  EXPECT_FALSE(nic_.TakeRxCompletion().has_value());
}

TEST_F(NicTest, OversizePacketTruncatedToBuffer) {
  const Frame frame = Alloc();
  ASSERT_EQ(nic_.PostRxBuffer(machine_.memory().FrameBase(frame), 8), Err::kNone);
  std::vector<uint8_t> packet(100, 0xAB);
  nic_.InjectPacket(packet);
  machine_.RunUntilIdle();
  auto completion = nic_.TakeRxCompletion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->len, 8u);
}

TEST_F(NicTest, WireLatencyIsModelled) {
  bool arrived = false;
  nic_.SetPeer([&](std::vector<uint8_t>) { arrived = true; });
  const Frame frame = Alloc();
  ASSERT_EQ(nic_.Transmit(machine_.memory().FrameBase(frame), 64), Err::kNone);
  machine_.RunFor(nic_.config().wire_latency / 2);
  EXPECT_FALSE(arrived);
  machine_.RunFor(nic_.config().wire_latency);
  EXPECT_TRUE(arrived);
}

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : machine_(MakeX86Platform(), 1 << 20), disk_(machine_, IrqLine(6), {}) {}

  Machine machine_;
  Disk disk_;
};

TEST_F(DiskTest, WriteThenReadRoundTrip) {
  auto frame = machine_.memory().AllocFrame(DomainId(1));
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> data(512);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  machine_.memory().Write(machine_.memory().FrameBase(*frame), data);
  auto wid = disk_.SubmitWrite(10, 1, machine_.memory().FrameBase(*frame));
  ASSERT_TRUE(wid.ok());
  machine_.RunUntilIdle();
  ASSERT_TRUE(disk_.TakeCompletion().has_value());

  std::vector<uint8_t> check(512);
  ASSERT_EQ(disk_.ReadBacking(10, check), Err::kNone);
  EXPECT_EQ(check, data);

  auto frame2 = machine_.memory().AllocFrame(DomainId(1));
  auto rid = disk_.SubmitRead(10, 1, machine_.memory().FrameBase(*frame2));
  ASSERT_TRUE(rid.ok());
  machine_.RunUntilIdle();
  auto completion = disk_.TakeCompletion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->request_id, *rid);
  std::vector<uint8_t> out(512);
  machine_.memory().Read(machine_.memory().FrameBase(*frame2), out);
  EXPECT_EQ(out, data);
}

TEST_F(DiskTest, Validation) {
  EXPECT_EQ(disk_.SubmitRead(0, 0, 0).error(), Err::kInvalidArgument);
  EXPECT_EQ(disk_.SubmitRead(disk_.config().capacity_blocks, 1, 0).error(), Err::kOutOfRange);
  EXPECT_EQ(disk_.SubmitRead(0, 1, machine_.memory().size_bytes()).error(), Err::kOutOfRange);
}

TEST_F(DiskTest, RequestsCompleteInOrder) {
  auto frame = machine_.memory().AllocFrame(DomainId(1));
  auto id1 = disk_.SubmitRead(0, 1, machine_.memory().FrameBase(*frame));
  auto id2 = disk_.SubmitRead(1, 1, machine_.memory().FrameBase(*frame));
  ASSERT_TRUE(id1.ok() && id2.ok());
  machine_.RunUntilIdle();
  auto c1 = disk_.TakeCompletion();
  auto c2 = disk_.TakeCompletion();
  ASSERT_TRUE(c1.has_value() && c2.has_value());
  EXPECT_EQ(c1->request_id, *id1);
  EXPECT_EQ(c2->request_id, *id2);
}

TEST_F(DiskTest, FixedPlusPerBlockLatency) {
  auto frame = machine_.memory().AllocFrame(DomainId(1));
  const uint64_t t0 = machine_.Now();
  ASSERT_TRUE(disk_.SubmitRead(0, 4, machine_.memory().FrameBase(*frame)).ok());
  machine_.RunUntilIdle();
  const uint64_t elapsed = machine_.Now() - t0;
  EXPECT_GE(elapsed, disk_.config().fixed_latency + 4 * disk_.config().per_block_latency);
}

class DriversTest : public ::testing::Test {
 protected:
  DriversTest()
      : machine_(MakeX86Platform(), 1 << 20),
        nic_(machine_, IrqLine(5), {}),
        disk_(machine_, IrqLine(6), {}) {}

  std::vector<Frame> AllocFrames(size_t n) {
    std::vector<Frame> frames;
    for (size_t i = 0; i < n; ++i) {
      auto f = machine_.memory().AllocFrame(DomainId(1));
      EXPECT_TRUE(f.ok());
      frames.push_back(*f);
    }
    return frames;
  }

  Machine machine_;
  Nic nic_;
  Disk disk_;
};

TEST_F(DriversTest, NicDriverSendAndReceive) {
  udrv::NicDriver driver(machine_, nic_, AllocFrames(8));
  std::vector<std::vector<uint8_t>> to_wire;
  nic_.SetPeer([&](std::vector<uint8_t> p) { to_wire.push_back(std::move(p)); });

  std::vector<std::vector<uint8_t>> received;
  driver.SetRxCallback([&](Frame frame, uint32_t len) {
    std::vector<uint8_t> bytes(len);
    machine_.memory().Read(machine_.memory().FrameBase(frame), bytes);
    received.push_back(std::move(bytes));
  });

  std::vector<uint8_t> out = {1, 2, 3};
  ASSERT_EQ(driver.SendCopy(out), Err::kNone);
  machine_.RunUntilIdle();
  driver.OnInterrupt();  // reap tx completion
  ASSERT_EQ(to_wire.size(), 1u);
  EXPECT_EQ(to_wire[0], out);
  EXPECT_EQ(driver.free_tx_frames(), 4u);  // staging frame recycled

  std::vector<uint8_t> in = {4, 5, 6, 7};
  nic_.InjectPacket(in);
  machine_.RunUntilIdle();
  driver.OnInterrupt();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], in);
}

TEST_F(DriversTest, NicDriverBackpressure) {
  udrv::NicDriver driver(machine_, nic_, AllocFrames(2));  // 1 rx + 1 tx
  std::vector<uint8_t> p = {1};
  ASSERT_EQ(driver.SendCopy(p), Err::kNone);
  // tx frame in flight; next send must fail until the completion is reaped.
  EXPECT_EQ(driver.SendCopy(p), Err::kBusy);
  machine_.RunUntilIdle();
  driver.OnInterrupt();
  EXPECT_EQ(driver.SendCopy(p), Err::kNone);
}

TEST_F(DriversTest, DiskDriverCallbacks) {
  udrv::DiskDriver driver(machine_, disk_);
  auto frames = AllocFrames(1);
  std::vector<uint8_t> data(4096, 0x5A);
  machine_.memory().Write(machine_.memory().FrameBase(frames[0]), data);

  bool done = false;
  Err status = Err::kBusy;
  ASSERT_EQ(driver.Write(0, driver.blocks_per_page(), frames[0], [&](Err s) {
    status = s;
    done = true;
  }), Err::kNone);
  machine_.RunUntilIdle();
  driver.OnInterrupt();
  EXPECT_TRUE(done);
  EXPECT_EQ(status, Err::kNone);

  std::vector<uint8_t> check(4096);
  ASSERT_EQ(disk_.ReadBacking(0, check), Err::kNone);
  EXPECT_EQ(check, data);
}

TEST_F(DriversTest, DiskDriverRejectsOversizeRequests) {
  udrv::DiskDriver driver(machine_, disk_);
  auto frames = AllocFrames(1);
  EXPECT_EQ(driver.Read(0, driver.blocks_per_page() + 1, frames[0], nullptr),
            Err::kInvalidArgument);
  EXPECT_EQ(driver.Read(0, 0, frames[0], nullptr), Err::kInvalidArgument);
}

}  // namespace
