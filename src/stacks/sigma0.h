// The microkernel stack's root memory server.
//
// "Implement whatever possible outside of the kernel" (Liedtke, quoted in
// §2.1): memory management runs as an ordinary task, like the driver
// servers it hands pages to (uk_net_server.h, uk_block_server.h).

#ifndef UKVM_SRC_STACKS_SIGMA0_H_
#define UKVM_SRC_STACKS_SIGMA0_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/hw/machine.h"
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

  // Takes back every frame provisioned for `task`, which the kernel has
  // destroyed: drops sigma0's own mapping of each and frees it.
  void Reclaim(ukvm::DomainId task);

 private:
  ukern::IpcMessage Handle(ukvm::ThreadId sender, ukern::IpcMessage msg);
  // Allocates a frame for `task` and maps it idempotently into sigma0's
  // own space; returns the sigma0-side VA usable as a map-item source.
  ukvm::Result<hwsim::Vaddr> ProvisionPage(ukvm::DomainId task);

  hwsim::Machine& machine_;
  ukern::Kernel& kernel_;
  ukvm::DomainId task_;
  ukvm::ThreadId thread_;
  uint64_t pages_granted_ = 0;
  std::unordered_map<ukvm::DomainId, std::vector<hwsim::Frame>> frames_of_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_SIGMA0_H_
