// The microkernel stack's user-level network driver server: the NIC driver
// runs in an ordinary task, the counterpart of the Dom0 netback path
// (experiments E3/E4). Its failure breaks only networking (E5).

#ifndef UKVM_SRC_STACKS_UK_NET_SERVER_H_
#define UKVM_SRC_STACKS_UK_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/drivers/nic_driver.h"
#include "src/drivers/retry_policy.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/net_protocol.h"
#include "src/stacks/sigma0.h"
#include "src/stacks/watchdog.h"
#include "src/ukernel/kernel.h"

namespace ustack {

class UkNetServer {
 public:
  // `routes` is the stack-owned wire routing table (it outlives the
  // server), keyed by client task: a packet routed to a task with no live
  // attached rx thread is dropped, an unrouted one goes to the first
  // attached client.
  UkNetServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0, hwsim::Nic& nic,
              const minios::NetRoutes& routes);

  ukvm::DomainId task() const { return task_; }
  ukvm::ThreadId thread() const { return thread_; }

  // Bounded retries for tx-ring starvation (e.g. lost completion IRQs).
  void SetRetryPolicy(const udrv::RetryPolicy& policy) { driver_->SetRetryPolicy(policy); }
  // Circuit breaker: after persistent send failures, reply kRetryExhausted
  // without touching the device until the cooldown passes.
  void SetDegradePolicy(const DegradePolicy& policy) { health_.SetPolicy(policy); }
  const ServiceHealth& health() const { return health_; }

  uint64_t rx_forwarded() const { return rx_forwarded_; }
  uint64_t rx_dropped() const { return rx_dropped_; }

 private:
  struct Client {
    ukvm::DomainId task;
    ukvm::ThreadId rx;
  };

  ukern::IpcMessage Handle(ukvm::ThreadId sender, ukern::IpcMessage msg);
  void OnPacket(hwsim::Frame frame, uint32_t len);
  // The rx thread `packet` goes to; Invalid when it is dropped.
  ukvm::ThreadId ClientFor(std::span<const uint8_t> packet) const;
  hwsim::Vaddr PoolVaOf(hwsim::Frame frame) const;

  hwsim::Machine& machine_;
  ukern::Kernel& kernel_;
  const minios::NetRoutes& routes_;
  ukvm::DomainId task_;
  ukvm::ThreadId thread_;
  std::unique_ptr<udrv::NicDriver> driver_;
  std::unordered_map<hwsim::Frame, hwsim::Vaddr> frame_to_va_;
  std::vector<Client> clients_;  // attached rx threads, in attach order
  ServiceHealth health_;
  uint64_t rx_forwarded_ = 0;
  uint64_t rx_dropped_ = 0;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_UK_NET_SERVER_H_
