// The service interface both stacks share (E5/E14/E15/E19): one kill,
// probe and restart sequence, written once and run on every storage
// service (the microkernel's block server, a Parallax VM, a blkback inside
// Dom0) and every net service (the microkernel's net server, a netback
// inside Dom0, a net driver VM).

#include <gtest/gtest.h>

#include <vector>

#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"

namespace {

using minios::ErrOf;
using ukvm::Err;

enum class Service { kStorage, kNet };

template <typename StackT>
Err Probe(StackT& stack, Service service) {
  return service == Service::kStorage ? stack.ProbeStorageService() : stack.ProbeNetService();
}

// The probe answers; after the kill it fails and the client's request
// returns kDead (a block write the service died under stays journaled);
// after the restart the probe answers again and the client is whole: the
// journal is empty, the connection counts one more reconnect and the write
// reads back, or a datagram goes out and one comes in. The auditor stays
// clean throughout.
template <typename StackT>
void KillProbeRestart(typename StackT::Config config, Service service) {
  config.audit = true;
  StackT stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  minios::BlockDevice& block = stack.guest_block(0);
  const minios::BlkJournal& journal = stack.guest_journal(0);
  const std::vector<uint8_t> data(block.block_size(), 0x5a);
  const std::vector<uint8_t> datagram = {1, 2, 3};
  const uint64_t reconnects = stack.guest_blk_conn(0).reconnects();
  EXPECT_EQ(Probe(stack, service), Err::kNone);

  if (service == Service::kStorage) {
    // The disk's fixed latency is 100us: the service dies with the write
    // on its way to the disk.
    stack.machine().ScheduleAfter(50 * hwsim::kCyclesPerUs, [&] { (void)stack.KillStorage(); });
    EXPECT_EQ(block.Write(7, 1, data), Err::kDead);
    EXPECT_EQ(journal.size(), 1u);
  } else {
    ASSERT_EQ(stack.KillNetService(), Err::kNone);
    stack.RunAsApp(0, [&] {
      auto& os = stack.guest_os(0);
      EXPECT_EQ(ErrOf(os.NetSend(*os.Spawn("tx"), 80, 7, datagram)), Err::kDead);
    });
  }
  EXPECT_NE(Probe(stack, service), Err::kNone);

  ASSERT_EQ(service == Service::kStorage ? stack.RestartStorage() : stack.RestartNetService(),
            Err::kNone);
  EXPECT_EQ(Probe(stack, service), Err::kNone);

  if (service == Service::kStorage) {
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_EQ(stack.guest_blk_conn(0).reconnects(), reconnects + 1);
    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(block.Read(7, 1, back), Err::kNone);
    EXPECT_EQ(back, data);
  } else {
    stack.machine().RunUntilIdle();
    const uint64_t sent_before = wire.packets_received();
    stack.RunAsApp(0, [&] {
      auto& os = stack.guest_os(0);
      const ukvm::ProcessId pid = *os.Spawn("io");
      EXPECT_EQ(os.NetSend(pid, 80, 7, datagram), 3);
      ASSERT_EQ(os.NetBind(pid, 40), 0);
      wire.StartStream(40, 64, 50 * hwsim::kCyclesPerUs, 1);
      stack.machine().RunFor(1000 * hwsim::kCyclesPerUs);
      std::vector<uint8_t> buf(256);
      EXPECT_EQ(os.NetRecv(pid, 40, buf), 64);
    });
    stack.machine().RunUntilIdle();
    EXPECT_EQ(wire.packets_received(), sent_before + 1);
  }

  ASSERT_NE(stack.auditor(), nullptr);
  stack.auditor()->Checkpoint("after-service-restart");
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
}

ustack::VmmStack::Config VmmConfig(bool parallax, bool net_driver_domain) {
  ustack::VmmStack::Config config;
  config.parallax_storage = parallax;
  config.net_driver_domain = net_driver_domain;
  return config;
}

TEST(ServiceInterface, UkernelBlockServer) {
  KillProbeRestart<ustack::UkernelStack>({}, Service::kStorage);
}

TEST(ServiceInterface, VmmParallaxStorage) {
  KillProbeRestart<ustack::VmmStack>(VmmConfig(/*parallax=*/true, false), Service::kStorage);
}

TEST(ServiceInterface, VmmDom0Storage) {
  KillProbeRestart<ustack::VmmStack>(VmmConfig(/*parallax=*/false, false), Service::kStorage);
}

TEST(ServiceInterface, UkernelNetServer) {
  KillProbeRestart<ustack::UkernelStack>({}, Service::kNet);
}

TEST(ServiceInterface, VmmDom0Netback) {
  KillProbeRestart<ustack::VmmStack>(VmmConfig(false, /*net_driver_domain=*/false),
                                     Service::kNet);
}

TEST(ServiceInterface, VmmNetDriverDomain) {
  KillProbeRestart<ustack::VmmStack>(VmmConfig(false, /*net_driver_domain=*/true),
                                     Service::kNet);
}

}  // namespace
