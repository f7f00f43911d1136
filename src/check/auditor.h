// The auditor: wires the invariant checks and the crossing-discipline
// linter into a live machine.
//
// One Auditor per simulated machine, and the machine's one observer
// (hwsim::Observer): it fills the machine's observer slot, taking the TLB
// fills, PTE map/unmap, PT-update batches, delegation mutations (grant
// table, mapdb) and device DMA, plus — with race detection armed — the race
// edges, which it forwards to the RaceDetector it owns. It also subscribes
// to the ledger's crossing stream for the linter and the detector's IPC
// edges. It decides *when* each class of check runs:
//
//  - per crossing: linter observation, plus draining any unmap operations
//    queued since the last event (a removed PTE must have left the TLB by
//    the time the next crossing is recorded);
//  - per PT update: cheap locality checks on the installed PTE (live frame,
//    privilege, hypervisor hole) — full-table work would be unaffordable on
//    hot paths;
//  - per checkpoint (Checkpoint()): every full scan, plus ledger pairing
//    balance, which is only meaningful at a quiescent point. Checkpoints
//    also pick up address spaces created since the last one, so per-update
//    checks cover new tasks/domains from the next checkpoint on.
//
// Destruction empties the machine's observer slot, so the auditor may be
// torn down before the kernels it watches (never after the machine).

#ifndef UKVM_SRC_CHECK_AUDITOR_H_
#define UKVM_SRC_CHECK_AUDITOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/check/invariants.h"
#include "src/check/ledger_lint.h"
#include "src/check/race.h"
#include "src/hw/machine.h"
#include "src/hw/observer.h"
#include "src/hw/paging.h"

namespace ukern {
class Kernel;
}
namespace uvmm {
class Hypervisor;
}

namespace ucheck {

class Auditor : public hwsim::Observer {
 public:
  struct Options {
    // Checkpoint TLB sweeps audit only entries inserted since the previous
    // checkpoint (per vCPU). Staleness from unmaps is caught by the
    // deferred-unmap drains, so coverage is unchanged; set false to force
    // the full sweep every time.
    bool incremental_tlb = true;
    // Happens-before race detection over shared rings and grant-mapped
    // frames (E20). Off by default: the detector costs host time but never
    // simulated cycles, so results are identical either way.
    bool race_detect = false;
  };

  explicit Auditor(hwsim::Machine& machine);  // default options
  Auditor(hwsim::Machine& machine, Options options);
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // Attach a kernel: its delegation mutations count from now on, and every
  // existing address space is watched. Call after the kernel has booted.
  void AttachUkernel(ukern::Kernel& kernel);
  void AttachVmm(uvmm::Hypervisor& hv);

  // Registers and watches a standalone space (ownership-only discipline).
  // The table must be built for this machine (PageTable(Machine&)).
  void AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space);

  // Stops watching and unregisters a raw space before it is destroyed.
  // Deferred unmap probes already queued for it stay queued — they resolve
  // through the machine's dead-space registry, never the table itself.
  void DetachSpace(hwsim::PageTable& space);

  // Full audit: watch spaces created since the last checkpoint, drain
  // deferred checks, run every invariant scan, and verify the ledger's
  // pairing groups are balanced. `phase` labels the checkpoint in warnings.
  void Checkpoint(const std::string& phase);

  // hwsim::Observer: isolation-audit events.
  void TlbInsert(const hwsim::TlbEntry& entry) override;
  void PteChanged(const hwsim::PageTable& space, hwsim::PteOp op, hwsim::Vaddr vpn,
                  const hwsim::Pte& pte) override;
  void PtBatchApplied(ukvm::DomainId domain, const hwsim::PageTable& space) override;
  void DelegationChanged() override;
  void DmaTarget(const hwsim::DmaAccess& access) override;

  // hwsim::Observer: race events, forwarded to race() (dropped without it;
  // the machine routes them here only when race detection is armed).
  void Release(ukvm::DomainId ctx, uint64_t key) override;
  void Acquire(ukvm::DomainId ctx, uint64_t key) override;
  void SharedWrite(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                   const char* what) override;
  void SharedRead(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                  const char* what) override;
  void RingPublish(ukvm::DomainId ctx, uint64_t key, uint64_t count) override;
  bool RingObserve(ukvm::DomainId ctx, uint64_t key, uint64_t index) override;
  void ContextDead(ukvm::DomainId ctx) override;

  // Violations found so far, across all checkers.
  size_t violation_count() const {
    return invariants_.violation_count() + lint_.violation_count() +
           (race_ ? race_->violation_count() : 0);
  }
  std::vector<std::string> ViolationReports() const;
  void ClearViolations();

  InvariantAuditor& invariants() { return invariants_; }
  LedgerLint& lint() { return lint_; }
  // Null unless Options.race_detect.
  RaceDetector* race() { return race_.get(); }

 private:
  void OnCrossing(const ukvm::CrossingEvent& event);
  void DrainPendingUnmaps();
  // Watches every live task/domain space; idempotent, run at attach time
  // and every checkpoint so later-created spaces get covered.
  void WatchLiveSpaces();

  // A space whose PTE updates are checked.
  struct WatchedSpace {
    ukvm::DomainId domain;
    SpaceKind kind;
  };

  hwsim::Machine& machine_;
  Options options_;
  InvariantAuditor invariants_;
  LedgerLint lint_;
  std::unique_ptr<RaceDetector> race_;
  uint32_t trace_sink_id_ = 0;
  ukern::Kernel* kernel_ = nullptr;
  uvmm::Hypervisor* hv_ = nullptr;
  // Keyed by PageTable::instance_id(), which is never recycled: a table
  // allocated where a dead one lived is unwatched until a checkpoint (or
  // AttachSpace) picks it up.
  std::unordered_map<uint64_t, WatchedSpace> watched_;

  struct PendingUnmap {
    const hwsim::PageTable* space;  // pointer-hashed only, never dereferenced
    hwsim::Vaddr vpn;
  };
  std::vector<PendingUnmap> pending_unmaps_;

  // Scan-skipping dirt: set by delegation mutations once a kernel is
  // attached, cleared when the grant-refcount and mapdb scans run at a
  // checkpoint.
  bool delegations_dirty_ = true;

  // Per-vCPU TLB insert stamps consumed by the incremental coherence sweep.
  std::vector<uint64_t> tlb_stamps_;

  size_t warned_ = 0;  // violations already reported via UKVM_WARN
};

}  // namespace ucheck

#endif  // UKVM_SRC_CHECK_AUDITOR_H_
