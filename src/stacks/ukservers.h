// User-level servers for the microkernel stack.
//
// "Implement whatever possible outside of the kernel" (Liedtke, quoted in
// §2.1): memory management (Sigma0), the network driver, and the block
// service all run as ordinary tasks. The block server plays the role
// Parallax plays in the VMM world — a storage service whose failure should
// affect only its clients (experiment E5); the net server is the
// counterpart of the Dom0 netback path (experiments E3/E4).

#ifndef UKVM_SRC_STACKS_UKSERVERS_H_
#define UKVM_SRC_STACKS_UKSERVERS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/drivers/disk_driver.h"
#include "src/drivers/nic_driver.h"
#include "src/drivers/retry_policy.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/blk_protocol.h"
#include "src/stacks/watchdog.h"
#include "src/ukernel/kernel.h"

namespace ustack {

// Label for the sigma0 memory protocol: regs[1]=va, [2]=pages, [3]=writable.
inline constexpr uint64_t kSigma0MapLabel = 0x40;

// The root memory server: owns all free physical memory and hands out pages
// via IPC map items. Also the default pager: faults are answered with a
// fresh zero page (demand paging).
class Sigma0 {
 public:
  Sigma0(hwsim::Machine& machine, ukern::Kernel& kernel);

  ukvm::DomainId task() const { return task_; }
  ukvm::ThreadId thread() const { return thread_; }

  // Convenience for boot-time wiring: asks sigma0 (via a real IPC from
  // `requester`) to map `pages` fresh pages at `va` in the requester's task.
  ukvm::Err RequestPages(ukvm::ThreadId requester, hwsim::Vaddr va, uint32_t pages,
                         bool writable);

  uint64_t pages_granted() const { return pages_granted_; }

 private:
  ukern::IpcMessage Handle(ukvm::ThreadId sender, ukern::IpcMessage msg);
  // Allocates a frame and maps it idempotently into sigma0's own space;
  // returns the sigma0-side VA usable as a map-item source.
  ukvm::Result<hwsim::Vaddr> ProvisionPage();

  hwsim::Machine& machine_;
  ukern::Kernel& kernel_;
  ukvm::DomainId task_;
  ukvm::ThreadId thread_;
  uint64_t pages_granted_ = 0;
};

// User-level network driver server.
class UkNetServer {
 public:
  UkNetServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0, hwsim::Nic& nic);

  ukvm::DomainId task() const { return task_; }
  ukvm::ThreadId thread() const { return thread_; }

  // Routes inbound wire packets for `wire_port` to a specific client's rx
  // thread (otherwise the first attached client receives them).
  void RoutePort(uint16_t wire_port, ukvm::ThreadId client_rx);

  // Bounded retries for tx-ring starvation (e.g. lost completion IRQs).
  void SetRetryPolicy(const udrv::RetryPolicy& policy) { driver_->SetRetryPolicy(policy); }
  // Circuit breaker: after persistent send failures, reply kRetryExhausted
  // without touching the device until the cooldown passes.
  void SetDegradePolicy(const DegradePolicy& policy) { health_.SetPolicy(policy); }
  const ServiceHealth& health() const { return health_; }

  uint64_t rx_forwarded() const { return rx_forwarded_; }
  uint64_t rx_dropped() const { return rx_dropped_; }

 private:
  ukern::IpcMessage Handle(ukvm::ThreadId sender, ukern::IpcMessage msg);
  void OnPacket(hwsim::Frame frame, uint32_t len);
  hwsim::Vaddr PoolVaOf(hwsim::Frame frame) const;

  hwsim::Machine& machine_;
  ukern::Kernel& kernel_;
  ukvm::DomainId task_;
  ukvm::ThreadId thread_;
  std::unique_ptr<udrv::NicDriver> driver_;
  std::unordered_map<hwsim::Frame, hwsim::Vaddr> frame_to_va_;
  std::vector<ukvm::ThreadId> clients_;  // attached rx threads
  std::unordered_map<uint16_t, ukvm::ThreadId> wire_routes_;
  ServiceHealth health_;
  uint64_t rx_forwarded_ = 0;
  uint64_t rx_dropped_ = 0;
};

// User-level block service: serves per-client virtual-disk slices.
class UkBlockServer {
 public:
  // `store` is the stack-owned slice table and exactly-once log (it
  // outlives the server), the same one BlkBack takes. A client task gets
  // its slice on first contact and keeps it across restarts. Writes carry
  // the client's journal id in regs[3] and its low-water mark in regs[4]:
  // a journal replay of a write that landed before the crash is answered
  // success without re-touching the disk.
  UkBlockServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0,
                hwsim::Disk& disk, minios::BlkStore& store);

  ukvm::DomainId task() const { return task_; }
  ukvm::ThreadId thread() const { return thread_; }

  void SetRetryPolicy(const udrv::RetryPolicy& policy) { driver_->SetRetryPolicy(policy); }
  void SetDegradePolicy(const DegradePolicy& policy) { health_.SetPolicy(policy); }
  const ServiceHealth& health() const { return health_; }

  uint64_t requests_served() const { return served_; }

 private:
  ukern::IpcMessage Handle(ukvm::ThreadId sender, ukern::IpcMessage msg);
  // Moves `count` blocks at absolute `lba` between the disk and `frame`
  // and waits for the completion; kNone once the disk applied it.
  ukvm::Err SubmitAndWait(bool is_write, uint64_t lba, uint32_t count, hwsim::Frame frame);

  hwsim::Machine& machine_;
  ukern::Kernel& kernel_;
  hwsim::Disk& disk_;
  ukvm::DomainId task_;
  ukvm::ThreadId thread_;
  std::unique_ptr<udrv::DiskDriver> driver_;
  hwsim::Vaddr staging_va_ = 0;
  hwsim::Frame staging_frame_ = 0;
  hwsim::Vaddr window_va_ = 0;
  ServiceHealth health_;
  minios::BlkStore& store_;
  uint64_t served_ = 0;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_UKSERVERS_H_
