// Isolation-invariant checks over the simulated machine state.
//
// The paper's whole argument rests on both kernels actually enforcing
// protection-domain isolation while they perform their crossings; a
// simulator that silently leaks a frame across domains or serves stale TLB
// translations would make every measurement meaningless. The
// InvariantAuditor walks machine + kernel state and verifies:
//
//  - TLB coherence: every valid TLB entry that can be attributed to a live
//    address space agrees with that space's page table (present, same
//    frame, permissions not exceeding the PTE);
//  - frame-ownership exclusivity: a frame mapped into a domain that does
//    not own it must have a recorded delegation — a mapdb node in the
//    microkernel stack, an active grant in the VMM stack;
//  - privilege discipline: no user-accessible PTE may target a frame owned
//    by the kernel/hypervisor domain; guest spaces may never map the
//    hypervisor hole; DMA may only target live, unprivileged frames;
//  - grant-refcount consistency: each grant's active-mapping count matches
//    the live PTEs actually mapping foreign frames in the grantee's space;
//  - mapdb coherence: every mapping-database node corresponds to a present
//    PTE with the recorded frame in a live task;
//  - shootdown discipline (E18): a TLB entry attributable to a destroyed
//    address space is a violation on any vCPU, and no shootdown round may
//    be left waiting for acks at a checkpoint.
//
// The class holds only non-owning pointers to the kernels; the wiring layer
// (src/check/auditor.h) decides when checks run.

#ifndef UKVM_SRC_CHECK_INVARIANTS_H_
#define UKVM_SRC_CHECK_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"

namespace ukern {
class Kernel;
}
namespace uvmm {
class Hypervisor;
}

namespace ucheck {

enum class Invariant : uint8_t {
  kTlbStale,                   // TLB serves a translation the tables revoked
  kTlbMismatch,                // TLB frame/permissions disagree with the PTE
  kFreeFrameMapping,           // PTE targets an unallocated frame
  kUnownedMapping,             // foreign frame mapped without mapdb/grant record
  kPrivilegedFrameUserMapped,  // user PTE onto a kernel/hypervisor frame
  kHypervisorHoleMapping,      // guest space maps into the hypervisor hole
                               // (defence-in-depth: MapGrant and mmu_update
                               // both reject these at the hypercall boundary)
  kGrantRefcountMismatch,      // grant active_mappings != live foreign PTEs
  kMapDbIncoherent,            // mapdb node without a matching live PTE
  kDmaToFreeFrame,             // device DMA targets an unallocated frame
  kDmaToPrivilegedFrame,       // device DMA targets a kernel/hypervisor frame
  kStaleTlbAfterDestroy,       // TLB entry attributable to a destroyed space
  kUnackedShootdown,           // shootdown round still awaiting vCPU acks
  kGrantHeldByDeadDomain,      // active grant names a destroyed domain (E19)
  kDanglingEventChannel,       // event channel references a destroyed domain
};

const char* InvariantName(Invariant rule);

struct InvariantViolation {
  Invariant rule;
  std::string detail;  // human-readable specifics with addresses/ids
  uint64_t time = 0;   // simulated time when the check ran
};

// What discipline a page table is held to: microkernel task spaces justify
// foreign frames through the mapping database, VMM domain spaces through
// grant entries, raw spaces (tests, bare-metal) only through ownership.
enum class SpaceKind : uint8_t { kUkernelTask, kVmmDomain, kRaw };

class InvariantAuditor {
 public:
  explicit InvariantAuditor(hwsim::Machine& machine) : machine_(machine) {}

  // Attach the kernel whose state the full scans should cover. Non-owning;
  // the kernel must outlive the auditor (or be detached by destroying the
  // auditor first — the stacks order their members accordingly).
  void AttachUkernel(ukern::Kernel& kernel) { kernel_ = &kernel; }
  void AttachVmm(uvmm::Hypervisor& hv) { hv_ = &hv; }

  // Registers a standalone space audited under the ownership-only rule.
  void AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space) {
    raw_spaces_.emplace_back(domain, &space);
  }

  // Unregisters a raw space about to be destroyed (pointer compared only).
  void DetachSpace(const hwsim::PageTable* space) {
    std::erase_if(raw_spaces_, [space](const auto& e) { return e.second == space; });
  }

  // --- Full scans (checkpoint granularity) -----------------------------------

  void CheckTlbCoherence();
  void CheckFrameOwnership();
  void CheckPrivilegeDiscipline();
  void CheckGrantRefcounts();
  void CheckMapDbCoherence();
  void CheckAll();

  // Incremental TLB-coherence sweep: audits only entries inserted since the
  // stamps recorded in `stamps` (one per vCPU; resized on first use) and
  // advances the stamps to the present. Staleness introduced by unmaps is
  // the deferred-unmap probes' job, so full and incremental sweeps flag
  // identical violation sets on coherent histories while the incremental
  // path touches strictly fewer entries (closes the ROADMAP item).
  void CheckTlbCoherenceSince(std::vector<uint64_t>& stamps);

  // Every shootdown round must eventually collect all its acks; a request
  // still outstanding at a checkpoint means some vCPU may serve stale
  // translations indefinitely.
  void CheckShootdownAcks();

  // Domain-death reclamation (E19): after a DestroyDomain, no grant entry
  // may name the corpse (as granter or grantee) and no event channel may
  // still be owned by — or stay connected to — it.
  void CheckDeadDomainReclamation();

  // Ownership + privilege scan of a single space (used at the end of each
  // paravirtual PT-update batch, which knows which domain's table changed).
  void CheckSpace(ukvm::DomainId domain, SpaceKind kind, const hwsim::PageTable& space);

  // --- Incremental checks (per observed event) --------------------------------

  // A PTE was just installed: is the frame live, non-privileged, outside
  // the hole?
  void CheckMappedPte(ukvm::DomainId domain, SpaceKind kind, hwsim::Vaddr vpn,
                      const hwsim::Pte& pte);

  // A PTE was removed earlier this operation: no TLB entry for the page may
  // survive, under either the raw or the salted key. `space` is only
  // pointer-hashed, never dereferenced, so the check stays safe after the
  // space is destroyed (task teardown queues these).
  void CheckUnmapFlushed(const hwsim::PageTable* space, hwsim::Vaddr vpn);

  // The MMU just inserted a TLB entry: it must agree with the currently
  // loaded space's PTE.
  void CheckTlbInsert(const hwsim::TlbEntry& entry);

  // A device DMA touches `access.frame`.
  void CheckDmaTarget(const hwsim::DmaAccess& access);

  // --- Results ----------------------------------------------------------------

  const std::vector<InvariantViolation>& violations() const { return violations_; }
  size_t violation_count() const { return violations_.size(); }
  void ClearViolations() { violations_.clear(); }

  // TLB-sweep coverage counters (cumulative across sweeps). An audited
  // entry was attributed and verified; a skipped entry could not be
  // attributed to any live or dead space — the skip list is explicit, not
  // a silent `return`, so tests can pin down exactly what the auditor does
  // not see.
  uint64_t tlb_entries_audited() const { return tlb_entries_audited_; }
  uint64_t tlb_entries_skipped() const { return tlb_entries_skipped_; }

 private:
  struct SpaceView {
    ukvm::DomainId domain;
    SpaceKind kind;
    hwsim::PageTable* space;
  };

  std::vector<SpaceView> Views() const;
  // Active grant mappings as (grantee, machine frame) -> expected count.
  std::map<std::pair<uint32_t, hwsim::Frame>, uint64_t> GrantMappedFrames() const;

  // Audits one TLB entry of `vcpu` against the live views and the
  // dead-space registry; shared by the full and incremental sweeps.
  void AuditTlbEntry(uint32_t vcpu, const std::vector<SpaceView>& views,
                     const hwsim::TlbEntry& entry);

  void Flag(Invariant rule, std::string detail);

  hwsim::Machine& machine_;
  ukern::Kernel* kernel_ = nullptr;
  uvmm::Hypervisor* hv_ = nullptr;
  std::vector<std::pair<ukvm::DomainId, hwsim::PageTable*>> raw_spaces_;
  std::vector<InvariantViolation> violations_;
  uint64_t tlb_entries_audited_ = 0;
  uint64_t tlb_entries_skipped_ = 0;
};

}  // namespace ucheck

#endif  // UKVM_SRC_CHECK_INVARIANTS_H_
