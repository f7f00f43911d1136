// Paravirtual page-table interface (Xen's mmu_update).
//
// Paper §2.2, primitive 5: "resource allocation within the VM (e.g., via
// hardware page-table virtualisation)". Guests run with direct (readable)
// page tables but every update goes through the hypervisor, which validates
// that the guest references only frames it owns and never maps the
// hypervisor hole. The per-update validation cost is the paravirtualization
// tax that shows up in the primitive-cost table (E7).

#ifndef UKVM_SRC_VMM_PT_VIRT_H_
#define UKVM_SRC_VMM_PT_VIRT_H_

#include <cstdint>
#include <span>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/vmm/domain.h"

namespace uvmm {

struct MmuUpdate {
  hwsim::Vaddr va = 0;
  Pfn pfn = 0;           // guest pseudo-physical frame to map
  bool present = true;   // false: unmap `va`
  bool writable = false;
};

class PtVirt {
 public:
  explicit PtVirt(hwsim::Machine& machine);

  // Validates and applies a batch of updates to `dom`'s page table.
  // Rejects the whole batch on the first invalid update (kPermissionDenied
  // for frames the domain does not own or VAs inside the hypervisor hole).
  ukvm::Err Apply(Domain& dom, std::span<const MmuUpdate> updates);

  uint64_t updates_applied() const { return updates_applied_; }

 private:
  hwsim::Machine& machine_;
  uint32_t mech_update_ = 0;
  uint64_t updates_applied_ = 0;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_PT_VIRT_H_
