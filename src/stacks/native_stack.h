// The native baseline: MiniOS directly on the simulated machine, no
// protection domains beyond user/kernel. This is the reference point for
// the syscall-path (E2) and crossing-count (E4) comparisons.

#ifndef UKVM_SRC_STACKS_NATIVE_STACK_H_
#define UKVM_SRC_STACKS_NATIVE_STACK_H_

#include <memory>

#include "src/check/auditor.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/hw/platform.h"
#include "src/os/kernel.h"
#include "src/os/ports/native_port.h"
#include "src/stacks/observers.h"

namespace ustack {

class NativeStack {
 public:
  // The native stack has no page tables and shares no memory across
  // domains: its auditor runs the ledger linter and DMA checks, and race
  // detection only the edge bookkeeping.
  struct Config : ObserverConfig {
    hwsim::Platform platform = hwsim::MakeX86Platform();
    uint64_t memory_bytes = 32ull * 1024 * 1024;
    uint32_t num_vcpus = 1;  // >1 arms the TLB shootdown protocol (E18)
  };

  explicit NativeStack(Config config);
  NativeStack() : NativeStack(Config{}) {}

  hwsim::Machine& machine() { return machine_; }
  hwsim::Nic& nic() { return nic_; }
  hwsim::Disk& disk() { return disk_; }
  minios::NativePort& port() { return *port_; }
  minios::Os& os() { return *os_; }
  // The isolation auditor; nullptr when the config disabled it.
  ucheck::Auditor* auditor() { return auditor_.get(); }

  // Accounting domain of the whole OS.
  ukvm::DomainId os_domain() const { return kOsDomain; }

 private:
  static constexpr ukvm::DomainId kOsDomain{1};
  static constexpr uint32_t kNicIrq = 5;
  static constexpr uint32_t kDiskIrq = 6;

  hwsim::Machine machine_;
  hwsim::Nic nic_;
  hwsim::Disk disk_;
  std::unique_ptr<minios::NativePort> port_;
  std::unique_ptr<minios::Os> os_;
  // Declared last: destroyed first, emptying the machine's observer slot
  // while the machine is still alive.
  std::unique_ptr<ucheck::Auditor> auditor_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_NATIVE_STACK_H_
