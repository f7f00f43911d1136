// Exception virtualization: trap-and-reflect, and the fast trap-gate
// shortcut (paper §3.2).
//
// The slow path is the architectural fact the paper highlights: "each
// guest-application exception and system call causes a trap into the VMM,
// which then invokes corresponding functionality in the guest OS. This is
// nothing but an IPC operation between the guest application and the guest
// OS." The fast path is Xen's trap-gate shortcut, valid only while every
// active segment excludes the hypervisor; because an x86 trap reloads only
// CS and SS (two of six registers), the hypervisor must disable the
// shortcut the moment the guest loads a non-excluding segment — which
// modern glibc does for TLS.

#ifndef UKVM_SRC_VMM_EXCEPTION_VIRT_H_
#define UKVM_SRC_VMM_EXCEPTION_VIRT_H_

#include <cstdint>

#include "src/core/error.h"
#include "src/hw/machine.h"
#include "src/hw/trap.h"
#include "src/vmm/domain.h"
#include "src/vmm/sched.h"

namespace uvmm {

class ExceptionVirt {
 public:
  ExceptionVirt(hwsim::Machine& machine, DomainScheduler& sched, ukvm::DomainId vmm_domain);

  // A guest application's system call. Takes the fast path when armed,
  // otherwise the full trap-reflect-iret journey. Returns the guest
  // kernel's return value.
  uint64_t GuestSyscall(Domain& dom, hwsim::TrapFrame& frame);

  // A guest page fault: always reflected through the hypervisor.
  ukvm::Err GuestPageFault(Domain& dom, hwsim::Vaddr va, bool write);

  // Any other guest exception (divide error, GP, ...): §3.2's "each
  // guest-application exception ... causes a trap into the VMM, which then
  // invokes corresponding functionality in the guest OS". There is no fast
  // gate for exceptions — they always pay the full reflect.
  ukvm::Err GuestException(Domain& dom, hwsim::TrapFrame& frame);

  // Recomputes `dom.fast_trap_enabled` from its segment state. Called by
  // the hypervisor after every segment-changing hypercall.
  void RecheckFastPath(Domain& dom) const;

 private:
  hwsim::Machine& machine_;
  DomainScheduler& sched_;
  ukvm::DomainId vmm_domain_;

  uint32_t mech_fastgate_ = 0;
  uint32_t mech_reflect_ = 0;
  uint32_t mech_pf_reflect_ = 0;
  uint32_t mech_exc_reflect_ = 0;
  uint32_t mech_iret_ = 0;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_EXCEPTION_VIRT_H_
