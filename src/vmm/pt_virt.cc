#include "src/vmm/pt_virt.h"

#include <vector>

namespace uvmm {

using ukvm::Err;

PtVirt::PtVirt(hwsim::Machine& machine) : machine_(machine) {
  mech_update_ =
      machine_.ledger().InternMechanism("xen.mmu_update", ukvm::CrossingKind::kResourceDelegate);
}

Err PtVirt::Apply(Domain& dom, std::span<const MmuUpdate> updates) {
  // Validation pass: the batch must be entirely legal before any of it is
  // applied (Xen aborts a bad batch without partial effects on the failing
  // entry's neighbours; we validate up front for simplicity).
  for (const MmuUpdate& u : updates) {
    machine_.Charge(machine_.costs().kernel_op);  // per-update validation
    if (u.va >= kHoleBase && u.va < kHoleEnd) {
      return Err::kPermissionDenied;  // the guest may never map the hypervisor
    }
    if (u.present) {
      auto mfn = dom.MfnOf(u.pfn);
      if (!mfn.ok()) {
        return Err::kOutOfRange;
      }
      if (machine_.memory().OwnerOf(*mfn) != dom.id) {
        return Err::kPermissionDenied;  // e.g. the frame was flipped away
      }
    }
  }
  // Revoked or downgraded translations must leave every vCPU's TLB, not
  // just the local one; the whole batch shares a single shootdown round.
  std::vector<hwsim::Vaddr> revoked_vpns;
  for (const MmuUpdate& u : updates) {
    machine_.Charge(machine_.costs().pte_write);
    if (u.present) {
      // A remap over a live PTE must invalidate the old translation too, or
      // the TLB keeps serving the previous frame.
      const hwsim::Pte* old = dom.space.Walk(u.va);
      if (old != nullptr && old->present) {
        machine_.cpu().InvalidatePage(&dom.space, dom.space.VpnOf(u.va));
        revoked_vpns.push_back(dom.space.VpnOf(u.va));
      }
      dom.space.Map(u.va, *dom.MfnOf(u.pfn), hwsim::PtePerms{u.writable, /*user=*/true});
    } else {
      (void)dom.space.Unmap(u.va);
      // Salt-aware flush: tagged TLBs keep this domain's entries across
      // switches, so the unmap must invalidate even when another space is
      // currently loaded.
      machine_.cpu().InvalidatePage(&dom.space, dom.space.VpnOf(u.va));
      revoked_vpns.push_back(dom.space.VpnOf(u.va));
    }
    ++updates_applied_;
  }
  if (!revoked_vpns.empty()) {
    machine_.TlbShootdown(&dom.space, revoked_vpns);
  }
  machine_.ledger().Record(mech_update_, dom.id, dom.id, 0,
                           updates.size() * machine_.memory().page_size());
  // One report per successfully applied batch, after all updates landed.
  if (hwsim::Observer* observer = machine_.observer()) {
    observer->PtBatchApplied(dom.id, dom.space);
  }
  return Err::kNone;
}

}  // namespace uvmm
