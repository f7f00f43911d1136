// Grant tables: Xen's mechanism for controlled cross-domain memory access.
//
// Three operations matter to the experiments:
//  - map/unmap: a domain maps another's granted page (resource delegation —
//    what the microkernel does with a single IPC map item);
//  - copy: the hypervisor moves bytes between domains (data transfer —
//    the microkernel's IPC string item);
//  - transfer: page flipping, exchanging frame ownership between domains.
//    Cherkasova & Gardner found Dom0's CPU cost proportional to the number
//    of these flips "irrespective of the message size" — the flip has a
//    fixed price (PTE updates + a TLB shootdown) no matter how few bytes
//    the page carries. Experiments E3 and E9 reproduce exactly that.

#ifndef UKVM_SRC_VMM_GRANT_TABLE_H_
#define UKVM_SRC_VMM_GRANT_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/vmm/domain.h"

namespace uvmm {

class GrantTable {
 public:
  using DomainResolver = std::function<Domain*(ukvm::DomainId)>;

  GrantTable(hwsim::Machine& machine, DomainResolver resolver);

  // --- Granter side ----------------------------------------------------------

  // Grants `grantee` (read or read/write) access to `granter`'s page `pfn`.
  ukvm::Result<uint32_t> GrantAccess(ukvm::DomainId granter, ukvm::DomainId grantee, Pfn pfn,
                                     bool writable);

  // Advertises page `pfn` of `granter` as a transfer slot: a Transfer by
  // `grantee` will swap a frame into it.
  ukvm::Result<uint32_t> GrantTransfer(ukvm::DomainId granter, ukvm::DomainId grantee, Pfn pfn);

  // Revokes a grant; fails with kBusy while the grantee has it mapped.
  ukvm::Err EndGrant(ukvm::DomainId granter, uint32_t ref);

  // --- Grantee side ----------------------------------------------------------

  // Maps the granted frame into `grantee`'s space at `va`.
  ukvm::Err MapGrant(ukvm::DomainId grantee, ukvm::DomainId granter, uint32_t ref,
                     hwsim::Vaddr va, bool write);
  ukvm::Err UnmapGrant(ukvm::DomainId grantee, ukvm::DomainId granter, uint32_t ref,
                       hwsim::Vaddr va);

  // Hypervisor-mediated copy of `len` bytes between the granted page
  // (offset `grant_off`) and the caller's own page `local_pfn` (offset
  // `local_off`). `to_grant` selects the direction.
  ukvm::Err Copy(ukvm::DomainId caller, ukvm::DomainId granter, uint32_t ref, uint64_t grant_off,
                 Pfn local_pfn, uint64_t local_off, uint32_t len, bool to_grant);

  // Page flip: exchanges the frame at `caller`'s `caller_pfn` with the frame
  // in `granter`'s advertised transfer slot `ref`. Ownership and p2m entries
  // swap; contents travel with the frames. Fixed cost, independent of how
  // many payload bytes the page holds. Returns the machine frame now backing
  // the caller's `caller_pfn` (the page received in exchange).
  ukvm::Result<hwsim::Frame> Transfer(ukvm::DomainId caller, Pfn caller_pfn,
                                      ukvm::DomainId granter, uint32_t ref);

  // Domain-death teardown (E19): drops every grant issued or held by
  // `dead`, first force-revoking each live mapping of a grant it issued —
  // unmapping the grantee's PTEs and shooting down its TLBs (one batched IPI
  // round per grantee space, the E18 protocol) so no surviving domain keeps
  // a window onto frames about to be freed and recycled.
  struct ReclaimStats {
    uint32_t grants_revoked = 0;
    uint32_t mappings_unmapped = 0;
  };
  ReclaimStats ReclaimDeadDomain(ukvm::DomainId dead);

  // --- Batching ---------------------------------------------------------------

  // Between BeginBatch and EndBatch, Transfer defers its TLB shootdown: the
  // per-flip charge drops to the ownership/p2m work, and EndBatch charges a
  // single shootdown covering every flip in the batch (one IPI flush at the
  // end of a multicall, as Xen's deferred-flush hypercalls do). Safe here
  // because no guest translates between sub-ops of one hypercall. Nests.
  void BeginBatch();
  void EndBatch();

  uint64_t deferred_shootdowns() const { return deferred_shootdowns_; }

  // --- Auditing ---------------------------------------------------------------

  // A read-only view of one live grant entry, for the invariant auditor.
  struct GrantView {
    ukvm::DomainId granter;
    uint32_t ref = 0;
    ukvm::DomainId grantee;
    Pfn pfn = 0;
    bool writable = false;
    bool for_transfer = false;
    uint32_t active_mappings = 0;
  };

  // Visits every in-use grant entry.
  void ForEachActive(const std::function<void(const GrantView&)>& fn) const;

  uint64_t transfers() const { return transfers_; }
  uint64_t copies() const { return copies_; }
  uint64_t copied_bytes() const { return copied_bytes_; }

 private:
  struct Entry {
    bool in_use = false;
    ukvm::DomainId grantee = ukvm::DomainId::Invalid();
    Pfn pfn = 0;
    bool writable = false;
    bool for_transfer = false;
    uint32_t active_mappings = 0;
    // Where the grantee mapped this grant (one VA per active mapping), so
    // ReclaimDeadDomain can force-unmap without the grantee's cooperation.
    std::vector<hwsim::Vaddr> mapped_vas;
  };

  Entry* FindEntry(ukvm::DomainId granter, uint32_t ref);
  ukvm::Result<uint32_t> NewEntry(ukvm::DomainId granter, Entry entry);
  // Reports DelegationChanged to the machine's observer after a map, unmap,
  // transfer or domain drop/reclaim.
  void ReportChanged();

  hwsim::Machine& machine_;
  DomainResolver resolve_;
  std::unordered_map<ukvm::DomainId, std::vector<Entry>> tables_;

  uint32_t mech_map_ = 0;
  uint32_t mech_unmap_ = 0;
  uint32_t mech_copy_ = 0;
  uint32_t mech_transfer_ = 0;
  uint32_t ctr_page_flips_ = 0;

  uint64_t transfers_ = 0;
  uint64_t copies_ = 0;
  uint64_t copied_bytes_ = 0;
  uint32_t batch_depth_ = 0;
  bool batch_shootdown_pending_ = false;
  uint64_t deferred_shootdowns_ = 0;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_GRANT_TABLE_H_
