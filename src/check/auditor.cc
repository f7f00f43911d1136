#include "src/check/auditor.h"

#include <cassert>
#include <utility>

#include "src/core/log.h"
#include "src/hw/cpu.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/task.h"
#include "src/vmm/domain.h"
#include "src/vmm/grant_table.h"
#include "src/vmm/hypervisor.h"
#include "src/vmm/pt_virt.h"

namespace ucheck {

Auditor::Auditor(hwsim::Machine& machine) : Auditor(machine, Options{}) {}

Auditor::Auditor(hwsim::Machine& machine, Options options)
    : machine_(machine), options_(options), invariants_(machine), lint_(machine.ledger()) {
  trace_sink_id_ = machine_.ledger().AddTraceSink(
      [this](const ukvm::CrossingEvent& event) { OnCrossing(event); });
  if (options_.race_detect) {
    race_ = std::make_unique<RaceDetector>(machine_);
  }
  machine_.SetObserver(this, /*race_edges=*/race_ != nullptr);
}

Auditor::~Auditor() {
  machine_.ledger().RemoveTraceSink(trace_sink_id_);
  if (machine_.observer() == this) {
    machine_.SetObserver(nullptr, /*race_edges=*/false);
  }
}

void Auditor::AttachUkernel(ukern::Kernel& kernel) {
  kernel_ = &kernel;
  invariants_.AttachUkernel(kernel);
  WatchLiveSpaces();
}

void Auditor::AttachVmm(uvmm::Hypervisor& hv) {
  hv_ = &hv;
  invariants_.AttachVmm(hv);
  if (race_) {
    race_->SetHubDomain(hv.vmm_domain());
  }
  WatchLiveSpaces();
}

void Auditor::AttachSpace(ukvm::DomainId domain, hwsim::PageTable& space) {
  assert(space.machine() == &machine_ && "a raw space must report to this machine");
  invariants_.AttachSpace(domain, space);
  watched_[space.instance_id()] = WatchedSpace{domain, SpaceKind::kRaw};
}

void Auditor::DetachSpace(hwsim::PageTable& space) {
  watched_.erase(space.instance_id());
  invariants_.DetachSpace(&space);
}

void Auditor::WatchLiveSpaces() {
  if (kernel_ != nullptr) {
    kernel_->ForEachTask([this](ukern::Task& t) {
      watched_[t.space.instance_id()] = WatchedSpace{t.id, SpaceKind::kUkernelTask};
    });
  }
  if (hv_ != nullptr) {
    hv_->ForEachDomain([this](uvmm::Domain& d) {
      watched_[d.space.instance_id()] = WatchedSpace{d.id, SpaceKind::kVmmDomain};
    });
  }
}

void Auditor::TlbInsert(const hwsim::TlbEntry& entry) { invariants_.CheckTlbInsert(entry); }

void Auditor::PteChanged(const hwsim::PageTable& space, hwsim::PteOp op, hwsim::Vaddr vpn,
                         const hwsim::Pte& pte) {
  const auto it = watched_.find(space.instance_id());
  if (it == watched_.end()) {
    return;
  }
  if (op == hwsim::PteOp::kUnmap) {
    // The kernel flushes the TLB right after the unmap, so the check must
    // wait: it runs at the next recorded crossing (by which time the
    // operation has completed) or at the next checkpoint.
    pending_unmaps_.push_back(PendingUnmap{&space, vpn});
    return;
  }
  invariants_.CheckMappedPte(it->second.domain, it->second.kind, vpn, pte);
}

void Auditor::PtBatchApplied(ukvm::DomainId domain, const hwsim::PageTable& space) {
  // PT-update batches bypass no checks (PtVirt goes through PageTable::Map/
  // Unmap), but the batch boundary is a consistent point to rescan just the
  // touched domain's table, catching multi-update interactions the
  // per-update checks cannot see.
  if (hv_ != nullptr) {
    invariants_.CheckSpace(domain, SpaceKind::kVmmDomain, space);
  }
}

void Auditor::DelegationChanged() {
  if (kernel_ != nullptr || hv_ != nullptr) {
    delegations_dirty_ = true;
  }
}

void Auditor::DmaTarget(const hwsim::DmaAccess& access) { invariants_.CheckDmaTarget(access); }

void Auditor::Release(ukvm::DomainId ctx, uint64_t key) {
  if (race_) {
    race_->Release(ctx, key);
  }
}

void Auditor::Acquire(ukvm::DomainId ctx, uint64_t key) {
  if (race_) {
    race_->Acquire(ctx, key);
  }
}

void Auditor::SharedWrite(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                          const char* what) {
  if (race_) {
    race_->SharedWrite(ctx, object, offset, what);
  }
}

void Auditor::SharedRead(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                         const char* what) {
  if (race_) {
    race_->SharedRead(ctx, object, offset, what);
  }
}

void Auditor::RingPublish(ukvm::DomainId ctx, uint64_t key, uint64_t count) {
  if (race_) {
    race_->RingPublish(ctx, key, count);
  }
}

bool Auditor::RingObserve(ukvm::DomainId ctx, uint64_t key, uint64_t index) {
  return race_ == nullptr || race_->RingObserve(ctx, key, index);
}

void Auditor::ContextDead(ukvm::DomainId ctx) {
  if (race_) {
    race_->ContextDead(ctx);
  }
}

void Auditor::DrainPendingUnmaps() {
  for (const PendingUnmap& pending : pending_unmaps_) {
    invariants_.CheckUnmapFlushed(pending.space, pending.vpn);
  }
  pending_unmaps_.clear();
}

void Auditor::OnCrossing(const ukvm::CrossingEvent& event) {
  lint_.Observe(event);
  if (!pending_unmaps_.empty()) {
    DrainPendingUnmaps();
  }
  if (race_) {
    race_->OnCrossing(event);
  }
}

void Auditor::Checkpoint(const std::string& phase) {
  WatchLiveSpaces();
  DrainPendingUnmaps();
  if (options_.incremental_tlb) {
    invariants_.CheckTlbCoherenceSince(tlb_stamps_);
  } else {
    invariants_.CheckTlbCoherence();
  }
  invariants_.CheckShootdownAcks();
  invariants_.CheckFrameOwnership();
  invariants_.CheckPrivilegeDiscipline();
  invariants_.CheckDeadDomainReclamation();
  if (delegations_dirty_) {
    invariants_.CheckGrantRefcounts();
    invariants_.CheckMapDbCoherence();
    delegations_dirty_ = false;
  }
  lint_.CheckBalanced();
  const std::vector<std::string> reports = ViolationReports();
  for (size_t i = warned_; i < reports.size(); ++i) {
    UKVM_WARN("ukvm-check[%s]: %s", phase.c_str(), reports[i].c_str());
  }
  if (warned_ == 0 && !reports.empty()) {
    // First violation this machine has ever seen: capture the evidence
    // (flight recorder, histograms, slowest request DAGs) while it is
    // still in the retained windows.
    machine_.PostMortemDump("auditor-violation");
  }
  warned_ = reports.size();
}

std::vector<std::string> Auditor::ViolationReports() const {
  std::vector<std::string> reports;
  for (const InvariantViolation& v : invariants_.violations()) {
    reports.push_back("invariant " + std::string(InvariantName(v.rule)) + " at t=" +
                      std::to_string(v.time) + ": " + v.detail);
  }
  for (const LintViolation& v : lint_.violations()) {
    reports.push_back("lint " + std::string(LintRuleName(v.rule)) + " at t=" +
                      std::to_string(v.time) + " seq=" + std::to_string(v.seq) + " [" +
                      v.mechanism + "]: " + v.detail);
  }
  if (race_) {
    for (std::string& report : race_->ViolationReports()) {
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

void Auditor::ClearViolations() {
  invariants_.ClearViolations();
  lint_.ClearViolations();
  if (race_) {
    race_->ClearViolations();
  }
  warned_ = 0;
}

}  // namespace ucheck
