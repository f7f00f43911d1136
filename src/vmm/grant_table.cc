#include "src/vmm/grant_table.h"

#include <algorithm>
#include <cassert>

namespace uvmm {

using ukvm::CrossingKind;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::Result;

GrantTable::GrantTable(hwsim::Machine& machine, DomainResolver resolver)
    : machine_(machine), resolve_(std::move(resolver)) {
  assert(resolve_);
  auto& ledger = machine_.ledger();
  mech_map_ = ledger.InternMechanism("xen.gnttab.map", CrossingKind::kResourceDelegate);
  mech_unmap_ = ledger.InternMechanism("xen.gnttab.unmap", CrossingKind::kResourceDelegate);
  mech_copy_ = ledger.InternMechanism("xen.gnttab.copy", CrossingKind::kDataTransfer);
  mech_transfer_ = ledger.InternMechanism("xen.gnttab.transfer", CrossingKind::kResourceDelegate);
  ctr_page_flips_ = machine_.counters().Intern("xen.page_flips");
}

GrantTable::Entry* GrantTable::FindEntry(DomainId granter, uint32_t ref) {
  auto it = tables_.find(granter);
  if (it == tables_.end() || ref >= it->second.size() || !it->second[ref].in_use) {
    return nullptr;
  }
  return &it->second[ref];
}

void GrantTable::ReportChanged() {
  if (hwsim::Observer* observer = machine_.observer()) {
    observer->DelegationChanged();
  }
}

Result<uint32_t> GrantTable::NewEntry(DomainId granter, Entry entry) {
  auto& table = tables_[granter];
  for (uint32_t ref = 0; ref < table.size(); ++ref) {
    if (!table[ref].in_use) {
      table[ref] = entry;
      return ref;
    }
  }
  table.push_back(entry);
  return static_cast<uint32_t>(table.size() - 1);
}

Result<uint32_t> GrantTable::GrantAccess(DomainId granter, DomainId grantee, Pfn pfn,
                                         bool writable) {
  Domain* g = resolve_(granter);
  if (g == nullptr || !g->alive) {
    return Err::kBadHandle;
  }
  if (!g->MfnOf(pfn).ok()) {
    return Err::kOutOfRange;
  }
  machine_.Charge(machine_.costs().kernel_op);
  Entry entry;
  entry.in_use = true;
  entry.grantee = grantee;
  entry.pfn = pfn;
  entry.writable = writable;
  return NewEntry(granter, entry);
}

Result<uint32_t> GrantTable::GrantTransfer(DomainId granter, DomainId grantee, Pfn pfn) {
  Domain* g = resolve_(granter);
  if (g == nullptr || !g->alive) {
    return Err::kBadHandle;
  }
  if (!g->MfnOf(pfn).ok()) {
    return Err::kOutOfRange;
  }
  machine_.Charge(machine_.costs().kernel_op);
  Entry entry;
  entry.in_use = true;
  entry.grantee = grantee;
  entry.pfn = pfn;
  entry.for_transfer = true;
  return NewEntry(granter, entry);
}

Err GrantTable::EndGrant(DomainId granter, uint32_t ref) {
  Entry* entry = FindEntry(granter, ref);
  if (entry == nullptr) {
    return Err::kBadHandle;
  }
  if (entry->active_mappings > 0) {
    return Err::kBusy;  // grantee still holds a mapping; revocation must wait
  }
  machine_.Charge(machine_.costs().kernel_op);
  *entry = Entry{};
  return Err::kNone;
}

Err GrantTable::MapGrant(DomainId grantee, DomainId granter, uint32_t ref, hwsim::Vaddr va,
                         bool write) {
  Entry* entry = FindEntry(granter, ref);
  Domain* g = resolve_(granter);
  Domain* e = resolve_(grantee);
  if (entry == nullptr || g == nullptr || e == nullptr) {
    return Err::kBadHandle;
  }
  if (!g->alive || !e->alive) {
    return Err::kDead;
  }
  if (entry->grantee != grantee || entry->for_transfer) {
    return Err::kPermissionDenied;
  }
  if (write && !entry->writable) {
    return Err::kPermissionDenied;
  }
  if (va >= kHoleBase && va < kHoleEnd) {
    return Err::kPermissionDenied;  // no guest mapping inside the hypervisor hole
  }
  auto mfn = g->MfnOf(entry->pfn);
  if (!mfn.ok()) {
    return Err::kOutOfRange;
  }
  machine_.Charge(machine_.costs().kernel_op + machine_.costs().pte_write);
  e->space.Map(va, *mfn, hwsim::PtePerms{write, /*user=*/true});
  ++entry->active_mappings;
  entry->mapped_vas.push_back(va);
  machine_.ledger().Record(mech_map_, granter, grantee, 0, machine_.memory().page_size());
  ReportChanged();
  return Err::kNone;
}

Err GrantTable::UnmapGrant(DomainId grantee, DomainId granter, uint32_t ref, hwsim::Vaddr va) {
  Entry* entry = FindEntry(granter, ref);
  Domain* e = resolve_(grantee);
  if (entry == nullptr || e == nullptr) {
    return Err::kBadHandle;
  }
  if (entry->grantee != grantee || entry->active_mappings == 0) {
    return Err::kInvalidArgument;
  }
  machine_.Charge(machine_.costs().kernel_op + machine_.costs().pte_write);
  e->space.Unmap(va);
  // Flush the salted keys too: on tagged-TLB platforms the grantee's entries
  // survive address-space switches, so guarding on the current space would
  // leave a stale translation behind.
  machine_.cpu().InvalidatePage(&e->space, e->space.VpnOf(va));
  // Other vCPUs may cache the revoked translation as well (free at 1 vCPU).
  const hwsim::Vaddr unmapped_vpn = e->space.VpnOf(va);
  machine_.TlbShootdown(&e->space, {&unmapped_vpn, 1});
  --entry->active_mappings;
  if (auto va_it = std::find(entry->mapped_vas.begin(), entry->mapped_vas.end(), va);
      va_it != entry->mapped_vas.end()) {
    entry->mapped_vas.erase(va_it);
  }
  machine_.ledger().Record(mech_unmap_, grantee, granter, 0, 0);
  ReportChanged();
  return Err::kNone;
}

Err GrantTable::Copy(DomainId caller, DomainId granter, uint32_t ref, uint64_t grant_off,
                     Pfn local_pfn, uint64_t local_off, uint32_t len, bool to_grant) {
  Entry* entry = FindEntry(granter, ref);
  Domain* g = resolve_(granter);
  Domain* c = resolve_(caller);
  if (entry == nullptr || g == nullptr || c == nullptr) {
    return Err::kBadHandle;
  }
  if (!g->alive || !c->alive) {
    return Err::kDead;
  }
  if (entry->grantee != caller || entry->for_transfer) {
    return Err::kPermissionDenied;
  }
  if (to_grant && !entry->writable) {
    return Err::kPermissionDenied;
  }
  const uint64_t page = machine_.memory().page_size();
  if (grant_off + len > page || local_off + len > page || len == 0) {
    return Err::kOutOfRange;
  }
  auto grant_mfn = g->MfnOf(entry->pfn);
  auto local_mfn = c->MfnOf(local_pfn);
  if (!grant_mfn.ok() || !local_mfn.ok()) {
    return Err::kOutOfRange;
  }
  machine_.Charge(machine_.costs().kernel_op);
  machine_.ChargeCopy(len);

  auto grant_data = machine_.memory().FrameData(*grant_mfn);
  auto local_data = machine_.memory().FrameData(*local_mfn);
  if (to_grant) {
    std::copy_n(local_data.begin() + static_cast<ptrdiff_t>(local_off), len,
                grant_data.begin() + static_cast<ptrdiff_t>(grant_off));
  } else {
    std::copy_n(grant_data.begin() + static_cast<ptrdiff_t>(grant_off), len,
                local_data.begin() + static_cast<ptrdiff_t>(local_off));
  }
  ++copies_;
  copied_bytes_ += len;
  machine_.ledger().Record(mech_copy_, to_grant ? caller : granter,
                           to_grant ? granter : caller, 0, len);
  return Err::kNone;
}

Result<hwsim::Frame> GrantTable::Transfer(DomainId caller, Pfn caller_pfn, DomainId granter,
                                          uint32_t ref) {
  Entry* entry = FindEntry(granter, ref);
  Domain* g = resolve_(granter);
  Domain* c = resolve_(caller);
  if (entry == nullptr || g == nullptr || c == nullptr) {
    return Err::kBadHandle;
  }
  if (!g->alive || !c->alive) {
    return Err::kDead;
  }
  if (entry->grantee != caller || !entry->for_transfer) {
    return Err::kPermissionDenied;
  }
  auto caller_mfn = c->MfnOf(caller_pfn);
  auto slot_mfn = g->MfnOf(entry->pfn);
  if (!caller_mfn.ok() || !slot_mfn.ok()) {
    return Err::kOutOfRange;
  }

  // The flip itself: two ownership changes, two p2m updates, two PTE-level
  // invalidations and a TLB shootdown. Note: no per-byte term whatsoever.
  // Inside a batch the shootdown is deferred to EndBatch — one flush covers
  // every flip of the multicall.
  machine_.Charge(machine_.costs().kernel_op + 2 * machine_.costs().pte_write);
  if (batch_depth_ > 0) {
    batch_shootdown_pending_ = true;
    ++deferred_shootdowns_;
  } else {
    machine_.Charge(machine_.costs().tlb_shootdown);
  }
  (void)machine_.memory().TransferFrame(*caller_mfn, granter);
  (void)machine_.memory().TransferFrame(*slot_mfn, caller);
  g->p2m[entry->pfn] = *caller_mfn;
  c->p2m[caller_pfn] = *slot_mfn;

  ++transfers_;
  machine_.counters().Add(ctr_page_flips_);
  machine_.ledger().Record(mech_transfer_, caller, granter, 0, machine_.memory().page_size());
  // A transfer grant is single-use.
  *entry = Entry{};
  ReportChanged();
  return *slot_mfn;
}

void GrantTable::BeginBatch() { ++batch_depth_; }

void GrantTable::EndBatch() {
  assert(batch_depth_ > 0);
  if (--batch_depth_ == 0 && batch_shootdown_pending_) {
    machine_.Charge(machine_.costs().tlb_shootdown);
    batch_shootdown_pending_ = false;
  }
}

GrantTable::ReclaimStats GrantTable::ReclaimDeadDomain(DomainId dead) {
  ReclaimStats stats;
  // Grants the dead domain issued: its frames are about to be freed, so any
  // mapping a surviving grantee still holds must be torn out of its page
  // table now — the grantee never cooperates with a crash. Shootdowns batch
  // per grantee space (first-seen order, kept deterministic for the replay
  // digests): one IPI round per victim, not one per page.
  if (auto it = tables_.find(dead); it != tables_.end()) {
    std::vector<std::pair<Domain*, std::vector<hwsim::Vaddr>>> victims;
    for (Entry& entry : it->second) {
      if (!entry.in_use) {
        continue;
      }
      ++stats.grants_revoked;
      if (entry.mapped_vas.empty()) {
        continue;
      }
      Domain* e = resolve_(entry.grantee);
      if (e == nullptr || !e->alive) {
        continue;  // grantee died first; its space is already quarantined
      }
      auto victim = std::find_if(victims.begin(), victims.end(),
                                 [e](const auto& v) { return v.first == e; });
      if (victim == victims.end()) {
        victims.emplace_back(e, std::vector<hwsim::Vaddr>{});
        victim = std::prev(victims.end());
      }
      for (hwsim::Vaddr va : entry.mapped_vas) {
        machine_.Charge(machine_.costs().kernel_op + machine_.costs().pte_write);
        e->space.Unmap(va);
        machine_.cpu().InvalidatePage(&e->space, e->space.VpnOf(va));
        victim->second.push_back(e->space.VpnOf(va));
        ++stats.mappings_unmapped;
        machine_.ledger().Record(mech_unmap_, entry.grantee, dead, 0, 0);
      }
      entry.mapped_vas.clear();
      entry.active_mappings = 0;
    }
    for (auto& [space_owner, vpns] : victims) {
      machine_.TlbShootdown(&space_owner->space, vpns);
    }
    tables_.erase(it);
  }
  // Grants the dead domain held as grantee: its own space is in the
  // machine's dead-space registry (ShootdownSpaceDeath), so the entries
  // just clear — the granter's frames were never at risk.
  for (auto& [granter, table] : tables_) {
    for (Entry& entry : table) {
      if (entry.in_use && entry.grantee == dead) {
        entry = Entry{};
        ++stats.grants_revoked;
      }
    }
  }
  ReportChanged();
  return stats;
}

void GrantTable::ForEachActive(const std::function<void(const GrantView&)>& fn) const {
  for (const auto& [granter, table] : tables_) {
    for (uint32_t ref = 0; ref < table.size(); ++ref) {
      const Entry& entry = table[ref];
      if (entry.in_use) {
        fn(GrantView{granter, ref, entry.grantee, entry.pfn, entry.writable, entry.for_transfer,
                     entry.active_mappings});
      }
    }
  }
}

}  // namespace uvmm
