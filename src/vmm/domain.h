// Virtual machines (domains, in Xen terminology).
//
// A domain owns machine frames (tracked through a pseudo-physical p2m map),
// a page table maintained only through validated hypercalls, segment state
// (which gates the fast system-call path), and the upcall entry points of
// the guest kernel running inside it. Dom0 — the privileged domain hosting
// legacy drivers — is a Domain with `privileged` set; the paper's super-VM
// critique (§2.2) and the Dom0 I/O measurements (§3.2) revolve around it.

#ifndef UKVM_SRC_VMM_DOMAIN_H_
#define UKVM_SRC_VMM_DOMAIN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/paging.h"
#include "src/hw/segmentation.h"
#include "src/hw/trap.h"

namespace uvmm {

// Guest pseudo-physical frame number (what the guest believes is physical).
using Pfn = uint64_t;

// The hypervisor hole: a VA range mapped in every domain that guest
// segments must exclude and no guest mapping may enter (64 MiB at the top
// of a 32-bit space, as Xen).
inline constexpr hwsim::Vaddr kHoleBase = 0xFC00'0000ull;
inline constexpr hwsim::Vaddr kHoleEnd = 0x1'0000'0000ull;

struct Domain {
  Domain(ukvm::DomainId id_in, std::string name_in, hwsim::Machine& machine, bool privileged_in)
      : id(id_in), name(std::move(name_in)), privileged(privileged_in), space(machine) {}

  ukvm::DomainId id;
  std::string name;
  bool privileged = false;  // Dom0: may control devices and other domains
  bool alive = true;

  hwsim::PageTable space;
  hwsim::SegmentState segments;

  // Pseudo-physical memory: pfn -> machine frame.
  std::vector<hwsim::Frame> p2m;

  // --- Guest-kernel entry points (registered via hypercalls) ---------------

  // System-call handler, runs at guest-kernel privilege. Returns the value
  // placed in the app's return register.
  std::function<uint64_t(hwsim::TrapFrame&)> syscall_entry;

  // Event-channel upcall (the guest's virtual-interrupt handler).
  std::function<void(uint32_t port)> evtchn_upcall;

  // Domain-death notification (E19): called when a domain this one had a
  // connected event channel to is destroyed. Guests register it for their
  // frontends; a domain that leaves it unset is not notified.
  std::function<void(ukvm::DomainId dead)> domain_dead_upcall;

  // Guest page-fault handler.
  std::function<ukvm::Err(hwsim::Vaddr va, bool write)> pagefault_entry;

  // Guest exception handler (divide error, GP fault, ...). Returns kNone if
  // the guest handled it; anything else makes the hypervisor kill the
  // domain's current activity (the app receives kAborted).
  std::function<ukvm::Err(hwsim::TrapFrame& frame)> exception_entry;

  // --- Fast system-call shortcut state (paper §3.2) --------------------------

  // The guest asked for a direct trap gate to its syscall handler.
  bool fast_trap_requested = false;
  // The hypervisor's verdict: granted only while every segment excludes the
  // hypervisor hole. Recomputed on every segment update.
  bool fast_trap_enabled = false;

  // --- Statistics -------------------------------------------------------------

  uint64_t hypercalls = 0;
  uint64_t syscalls_fast = 0;
  uint64_t syscalls_reflected = 0;
  uint64_t exceptions_reflected = 0;
  uint64_t upcalls = 0;

  ukvm::Result<hwsim::Frame> MfnOf(Pfn pfn) const {
    if (pfn >= p2m.size()) {
      return ukvm::Err::kOutOfRange;
    }
    return p2m[pfn];
  }

  ukvm::Result<Pfn> PfnOf(hwsim::Frame mfn) const {
    for (Pfn pfn = 0; pfn < p2m.size(); ++pfn) {
      if (p2m[pfn] == mfn) {
        return pfn;
      }
    }
    return ukvm::Err::kNotFound;
  }
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_DOMAIN_H_
