// The microkernel stack's user-level block service: it plays the role
// Parallax plays in the VMM world, a storage service whose failure should
// affect only its clients (experiment E5).

#ifndef UKVM_SRC_STACKS_UK_BLOCK_SERVER_H_
#define UKVM_SRC_STACKS_UK_BLOCK_SERVER_H_

#include <cstdint>
#include <memory>

#include "src/core/error.h"
#include "src/drivers/disk_driver.h"
#include "src/drivers/retry_policy.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/os/blk_protocol.h"
#include "src/stacks/sigma0.h"
#include "src/stacks/watchdog.h"
#include "src/ukernel/kernel.h"

namespace ustack {

// Serves per-client virtual-disk slices.
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

#endif  // UKVM_SRC_STACKS_UK_BLOCK_SERVER_H_
