// The simulated CPU: privilege mode, current protection domain, current
// address space, TLB, and segment state.
//
// The CPU does not fetch instructions — guest code runs as real C++ — but
// it owns everything architectural that the experiments measure: whose
// cycles are being consumed (current domain), what a translation costs
// (TLB + page walk), and what an address-space switch costs (base reload +
// flush + refill misses).

#ifndef UKVM_SRC_HW_CPU_H_
#define UKVM_SRC_HW_CPU_H_

#include <cstdint>
#include <functional>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/paging.h"
#include "src/hw/segmentation.h"
#include "src/hw/tlb.h"

namespace hwsim {

class Machine;

// Privilege levels. kGuestKernel models x86 ring 1 / ia64 PL1, the ring
// classic paravirtualization parks the guest kernel in.
enum class PrivLevel : uint8_t {
  kPrivileged = 0,  // microkernel / hypervisor
  kGuestKernel = 1,
  kUser = 3,
};

const char* PrivLevelName(PrivLevel level);

class Cpu {
 public:
  Cpu(Machine& machine, uint32_t tlb_entries, uint32_t vcpu_id = 0);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  uint32_t vcpu_id() const { return vcpu_id_; }
  ukvm::DomainId current_domain() const { return domain_; }
  PrivLevel mode() const { return mode_; }
  bool interrupts_enabled() const { return interrupts_enabled_; }
  PageTable* address_space() const { return address_space_; }
  SegmentState* segments() const { return segments_; }
  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  // Re-attributes subsequent cycle charges without any architectural cost
  // (the kernel flipping its accounting pointer).
  void SetDomain(ukvm::DomainId domain) { domain_ = domain; }
  void SetMode(PrivLevel mode) { mode_ = mode; }
  void SetInterruptsEnabled(bool enabled) { interrupts_enabled_ = enabled; }
  void SetSegments(SegmentState* segments) { segments_ = segments; }

  // Loads a new page-table base: charges the switch cost and flushes the
  // TLB (unless the platform has a tagged TLB). Passing the current space
  // is a no-op. Does not change the accounting domain; call SetDomain.
  void SwitchAddressSpace(PageTable* space);

  // Liedtke's small-spaces switch [Lie95]: the new protection domain is
  // reached by segment remapping inside the shared page table, so neither
  // the page-table base nor the TLB is touched — only segment registers
  // reload. Valid only on platforms with segmentation; the kernel decides
  // eligibility. Translation still uses `space` (the small space's view).
  void SwitchAddressSpaceSmall(PageTable* space);

  // Invalidates any TLB entry for `vpn` in `space`, whether it was
  // inserted under the space's tag/segment salt or untagged. Kernels must
  // use this (not tlb().FlushPage) when revoking a mapping: on tagged-TLB
  // platforms and under small spaces, entries survive address-space
  // switches under a salted key, so flushing the raw vpn of the currently
  // loaded space is not enough.
  void InvalidatePage(const PageTable* space, Vaddr vpn);

  // Same invalidation given only the space's salt — used by the machine's
  // shootdown protocol, whose requests must stay valid after the space
  // object is gone (death shootdowns outlive the table).
  void InvalidatePageKeyed(uint64_t salt, Vaddr vpn);

  // Drops every entry attributable to `space` (salted key, or raw key if
  // this vCPU's last untagged switch loaded it) and forgets the salt-0
  // attribution. Pointer compared, never dereferenced; `salt` is passed in
  // by the caller for the same lifetime reason as InvalidatePageKeyed.
  // Returns the number of entries dropped. No cycles are charged — the
  // shootdown protocol prices the flush.
  uint32_t FlushSpaceEntries(const PageTable* space, uint64_t salt);

  // The salt that entries of `space` carry when it is active as a tagged
  // or small space (upper 32 bits only; vpns stay below 2^32). Delegates to
  // the table's monotonic identity rather than hashing the pointer: a hash
  // could collide for two live spaces (or a recycled allocation), aliasing
  // their TLB keys and masking a stale-entry violation from the auditor.
  static uint64_t TlbSaltOf(const PageTable* space) {
    return space == nullptr ? 0 : space->tlb_salt();
  }
  uint64_t tlb_salt() const { return tlb_salt_; }
  // The space whose entries were inserted with salt 0 (the last untagged
  // full switch); lets auditors attribute unsalted TLB entries.
  const PageTable* salt0_space() const { return salt0_space_; }

  // Translates `va` through TLB and page tables, charging miss costs and
  // setting accessed/dirty bits. Fails with kFault on missing/forbidden
  // mappings — the caller decides whether to raise a page-fault trap.
  ukvm::Result<Translation> Translate(Vaddr va, bool write, bool user_access);

  // The MMU's refill after a walk: inserts the entry under `key` (the
  // salted vpn) and reports it to the machine's observer. Uncharged — the
  // walk that found the PTE carries the cost.
  void FillTlb(Vaddr key, Frame frame, bool writable, bool user);

  // Charges the cost of reloading `count` segment registers (zero-cost on
  // platforms without segmentation).
  void ChargeSegmentReloads(uint32_t count);

  uint64_t context_switches() const { return context_switches_; }

 private:
  Machine& machine_;
  uint32_t vcpu_id_ = 0;
  ukvm::DomainId domain_ = ukvm::DomainId::Invalid();
  PrivLevel mode_ = PrivLevel::kPrivileged;
  bool interrupts_enabled_ = false;
  PageTable* address_space_ = nullptr;
  SegmentState* segments_ = nullptr;
  Tlb tlb_;
  // Distinguishes TLB entries of different small spaces sharing one page
  // table: models the distinct linear addresses produced by their segment
  // bases. XORed into the TLB key.
  uint64_t tlb_salt_ = 0;
  const PageTable* salt0_space_ = nullptr;
  uint64_t context_switches_ = 0;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_CPU_H_
