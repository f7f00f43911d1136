#include "src/vmm/exception_virt.h"

namespace uvmm {

using ukvm::CrossingKind;
using ukvm::Err;

ExceptionVirt::ExceptionVirt(hwsim::Machine& machine, DomainScheduler& sched,
                             ukvm::DomainId vmm_domain)
    : machine_(machine), sched_(sched), vmm_domain_(vmm_domain) {
  auto& ledger = machine_.ledger();
  mech_fastgate_ = ledger.InternMechanism("xen.syscall.fastgate", CrossingKind::kTrap);
  mech_reflect_ = ledger.InternMechanism("xen.syscall.reflect", CrossingKind::kTrap);
  mech_pf_reflect_ = ledger.InternMechanism("xen.pf.reflect", CrossingKind::kTrap);
  mech_exc_reflect_ = ledger.InternMechanism("xen.exc.reflect", CrossingKind::kTrap);
  mech_iret_ = ledger.InternMechanism("xen.iret", CrossingKind::kTrapReturn);
}

void ExceptionVirt::RecheckFastPath(Domain& dom) const {
  // The shortcut stays armed only while *all six* segments exclude the
  // hypervisor hole: a trap gate reloads only CS and SS, so the hypervisor
  // cannot fix up DS/ES/FS/GS on the transition. Platforms without
  // segmentation cannot express the shortcut at all.
  dom.fast_trap_enabled = machine_.platform().has_segmentation && dom.fast_trap_requested &&
                          dom.segments.AllExclude(kHoleBase, kHoleEnd);
}

uint64_t ExceptionVirt::GuestSyscall(Domain& dom, hwsim::TrapFrame& frame) {
  const uint64_t t0 = machine_.Now();
  if (!dom.syscall_entry) {
    return static_cast<uint64_t>(-1);
  }

  if (dom.fast_trap_enabled) {
    // Fast trap gate: user -> guest kernel directly, reloading only CS+SS.
    // The VMM is never entered.
    machine_.Charge(machine_.costs().fast_trap_entry);
    machine_.cpu().ChargeSegmentReloads(hwsim::kTrapReloadedSegments);
    machine_.cpu().SetMode(hwsim::PrivLevel::kGuestKernel);
    const uint64_t ret = dom.syscall_entry(frame);
    machine_.Charge(machine_.costs().fast_trap_return);
    machine_.cpu().SetMode(hwsim::PrivLevel::kUser);
    ++dom.syscalls_fast;
    machine_.ledger().Record(mech_fastgate_, dom.id, dom.id, machine_.Now() - t0, 0);
    return ret;
  }

  // Slow path: trap into the VMM, which reflects into the guest kernel.
  machine_.Charge(machine_.costs().trap_entry);
  sched_.EnterHypervisor();
  machine_.Charge(machine_.costs().kernel_op);  // decode + locate guest trap table
  machine_.ledger().Record(mech_reflect_, dom.id, dom.id, 0, 0);

  // Reflect: return into the guest kernel's registered handler.
  sched_.SwitchTo(dom, hwsim::PrivLevel::kGuestKernel);
  machine_.Charge(machine_.costs().trap_return);
  const uint64_t ret = dom.syscall_entry(frame);

  // The guest kernel returns to its application via an iret hypercall —
  // a second VMM entry per system call.
  machine_.Charge(machine_.costs().hypercall_entry);
  sched_.EnterHypervisor();
  machine_.Charge(machine_.costs().kernel_op);
  sched_.SwitchTo(dom, hwsim::PrivLevel::kUser);
  machine_.Charge(machine_.costs().trap_return);
  ++dom.syscalls_reflected;
  machine_.ledger().Record(mech_iret_, dom.id, dom.id, machine_.Now() - t0, 0);
  return ret;
}

Err ExceptionVirt::GuestPageFault(Domain& dom, hwsim::Vaddr va, bool write) {
  if (!dom.pagefault_entry) {
    return Err::kFault;
  }
  const uint64_t t0 = machine_.Now();
  // Page faults always enter the VMM (it must inspect the fault to
  // distinguish guest faults from shadow/validation work).
  machine_.Charge(machine_.costs().trap_entry);
  sched_.EnterHypervisor();
  machine_.Charge(machine_.costs().kernel_op);
  machine_.ledger().Record(mech_pf_reflect_, dom.id, dom.id, 0, 0);

  sched_.SwitchTo(dom, hwsim::PrivLevel::kGuestKernel);
  machine_.Charge(machine_.costs().trap_return);
  const Err err = dom.pagefault_entry(va, write);

  machine_.Charge(machine_.costs().hypercall_entry);
  sched_.EnterHypervisor();
  sched_.SwitchTo(dom, hwsim::PrivLevel::kUser);
  machine_.Charge(machine_.costs().trap_return);
  machine_.ledger().Record(mech_iret_, dom.id, dom.id, machine_.Now() - t0, 0);
  return err;
}

Err ExceptionVirt::GuestException(Domain& dom, hwsim::TrapFrame& frame) {
  if (!dom.exception_entry) {
    return Err::kAborted;  // unhandled: the hypervisor terminates the activity
  }
  const uint64_t t0 = machine_.Now();
  machine_.Charge(machine_.costs().trap_entry);
  sched_.EnterHypervisor();
  machine_.Charge(machine_.costs().kernel_op);
  machine_.ledger().Record(mech_exc_reflect_, dom.id, dom.id, 0, 0);

  sched_.SwitchTo(dom, hwsim::PrivLevel::kGuestKernel);
  machine_.Charge(machine_.costs().trap_return);
  const Err err = dom.exception_entry(frame);
  ++dom.exceptions_reflected;

  machine_.Charge(machine_.costs().hypercall_entry);
  sched_.EnterHypervisor();
  sched_.SwitchTo(dom, hwsim::PrivLevel::kUser);
  machine_.Charge(machine_.costs().trap_return);
  machine_.ledger().Record(mech_iret_, dom.id, dom.id, machine_.Now() - t0, 0);
  return err;
}

}  // namespace uvmm
