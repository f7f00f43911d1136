#include "src/check/invariants.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/hw/cpu.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/task.h"
#include "src/vmm/domain.h"
#include "src/vmm/grant_table.h"
#include "src/vmm/hypervisor.h"

namespace ucheck {
namespace {

// The domain id both kernels reserve for themselves; frames it owns must
// never become user-accessible and must never be DMA targets.
constexpr ukvm::DomainId kPrivilegedDomain{0};

std::string Fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return std::string(buf);
}

const char* KindName(SpaceKind kind) {
  switch (kind) {
    case SpaceKind::kUkernelTask:
      return "task";
    case SpaceKind::kVmmDomain:
      return "domain";
    case SpaceKind::kRaw:
      return "space";
  }
  return "?";
}

}  // namespace

const char* InvariantName(Invariant rule) {
  switch (rule) {
    case Invariant::kTlbStale:
      return "tlb-stale";
    case Invariant::kTlbMismatch:
      return "tlb-mismatch";
    case Invariant::kFreeFrameMapping:
      return "free-frame-mapping";
    case Invariant::kUnownedMapping:
      return "unowned-mapping";
    case Invariant::kPrivilegedFrameUserMapped:
      return "privileged-frame-user-mapped";
    case Invariant::kHypervisorHoleMapping:
      return "hypervisor-hole-mapping";
    case Invariant::kGrantRefcountMismatch:
      return "grant-refcount-mismatch";
    case Invariant::kMapDbIncoherent:
      return "mapdb-incoherent";
    case Invariant::kDmaToFreeFrame:
      return "dma-to-free-frame";
    case Invariant::kDmaToPrivilegedFrame:
      return "dma-to-privileged-frame";
    case Invariant::kStaleTlbAfterDestroy:
      return "stale-tlb-after-destroy";
    case Invariant::kUnackedShootdown:
      return "unacked-shootdown";
    case Invariant::kGrantHeldByDeadDomain:
      return "grant-held-by-dead-domain";
    case Invariant::kDanglingEventChannel:
      return "dangling-event-channel";
  }
  return "?";
}

void InvariantAuditor::Flag(Invariant rule, std::string detail) {
  violations_.push_back(InvariantViolation{rule, std::move(detail), machine_.Now()});
}

std::vector<InvariantAuditor::SpaceView> InvariantAuditor::Views() const {
  std::vector<SpaceView> views;
  if (kernel_ != nullptr) {
    kernel_->ForEachTask([&](ukern::Task& t) {
      views.push_back(SpaceView{t.id, SpaceKind::kUkernelTask, &t.space});
    });
  }
  if (hv_ != nullptr) {
    hv_->ForEachDomain([&](uvmm::Domain& d) {
      views.push_back(SpaceView{d.id, SpaceKind::kVmmDomain, &d.space});
    });
  }
  for (const auto& [domain, space] : raw_spaces_) {
    views.push_back(SpaceView{domain, SpaceKind::kRaw, space});
  }
  return views;
}

std::map<std::pair<uint32_t, hwsim::Frame>, uint64_t> InvariantAuditor::GrantMappedFrames() const {
  std::map<std::pair<uint32_t, hwsim::Frame>, uint64_t> mapped;
  if (hv_ == nullptr) {
    return mapped;
  }
  hv_->gnttab().ForEachActive([&](const uvmm::GrantTable::GrantView& g) {
    if (g.active_mappings == 0) {
      return;
    }
    uvmm::Domain* granter = hv_->FindDomain(g.granter);
    if (granter == nullptr) {
      return;
    }
    auto mfn = granter->MfnOf(g.pfn);
    if (!mfn.ok()) {
      return;
    }
    mapped[{g.grantee.value(), *mfn}] += g.active_mappings;
  });
  return mapped;
}

void InvariantAuditor::AuditTlbEntry(uint32_t vcpu, const std::vector<SpaceView>& views,
                                     const hwsim::TlbEntry& entry) {
  // Attribute the entry to a space via its salt (the upper 32 key bits).
  // Unsalted entries belong to that vCPU's last untagged full switch;
  // salted ones to whichever live space holds that salt. Entries whose
  // space died are violations (the death shootdown should have flushed
  // them); entries attributable to nothing at all land on the explicit
  // skip list rather than vanishing silently.
  const hwsim::Cpu& cpu = machine_.cpu(vcpu);
  const uint64_t salt = entry.vpn & ~uint64_t{0xffffffff};
  const hwsim::PageTable* key_space = salt == 0 ? cpu.salt0_space() : nullptr;
  const hwsim::Vaddr vpn = entry.vpn ^ salt;
  if (salt != 0) {
    for (const SpaceView& v : views) {
      if (hwsim::Cpu::TlbSaltOf(v.space) == salt) {
        key_space = v.space;
        break;
      }
    }
    if (key_space == nullptr) {
      if (machine_.FindDeadSpaceBySalt(salt) != nullptr) {
        ++tlb_entries_audited_;
        Flag(Invariant::kStaleTlbAfterDestroy,
             Fmt("vcpu %u TLB still holds vpn 0x%" PRIx64
                 " of a destroyed space (salt id %" PRIu64 ")",
                 vcpu, vpn, salt >> 32));
        return;
      }
      // Unknown salt: the space vanished without a death shootdown (raw
      // spaces in tests). Nothing safe to dereference — count it.
      ++tlb_entries_skipped_;
      return;
    }
  }
  if (key_space == nullptr) {
    ++tlb_entries_skipped_;  // untagged entry with no recorded salt0 space
    return;
  }
  const SpaceView* view = nullptr;
  for (const SpaceView& v : views) {
    if (v.space == key_space) {
      view = &v;
      break;
    }
  }
  if (view == nullptr) {
    if (machine_.IsDeadSpace(key_space)) {
      ++tlb_entries_audited_;
      Flag(Invariant::kStaleTlbAfterDestroy,
           Fmt("vcpu %u TLB still holds untagged vpn 0x%" PRIx64 " of a destroyed space", vcpu,
               vpn));
      return;
    }
    ++tlb_entries_skipped_;  // salt0 space gone without a death record
    return;
  }
  ++tlb_entries_audited_;
  const hwsim::Pte* pte = view->space->Walk(vpn << view->space->page_shift());
  if (pte == nullptr || !pte->present) {
    Flag(Invariant::kTlbStale,
         Fmt("vcpu %u TLB holds vpn 0x%" PRIx64 " of %s %u but the PTE is gone", vcpu, vpn,
             KindName(view->kind), view->domain.value()));
    return;
  }
  if (pte->frame != entry.frame) {
    Flag(Invariant::kTlbMismatch,
         Fmt("vcpu %u TLB maps vpn 0x%" PRIx64 " of %s %u to frame %" PRIu64
             " but the PTE says %" PRIu64,
             vcpu, vpn, KindName(view->kind), view->domain.value(), entry.frame, pte->frame));
    return;
  }
  if ((entry.writable && !pte->writable) || (entry.user && !pte->user)) {
    Flag(Invariant::kTlbMismatch,
         Fmt("vcpu %u TLB permissions for vpn 0x%" PRIx64 " of %s %u exceed the PTE", vcpu, vpn,
             KindName(view->kind), view->domain.value()));
  }
}

void InvariantAuditor::CheckTlbCoherence() {
  const std::vector<SpaceView> views = Views();
  for (uint32_t v = 0; v < machine_.num_vcpus(); ++v) {
    machine_.cpu(v).tlb().ForEachValid(
        [&](const hwsim::TlbEntry& entry) { AuditTlbEntry(v, views, entry); });
  }
}

void InvariantAuditor::CheckTlbCoherenceSince(std::vector<uint64_t>& stamps) {
  stamps.resize(machine_.num_vcpus(), 0);
  const std::vector<SpaceView> views = Views();
  for (uint32_t v = 0; v < machine_.num_vcpus(); ++v) {
    const hwsim::Tlb& tlb = machine_.cpu(v).tlb();
    tlb.ForEachValidSince(stamps[v],
                          [&](const hwsim::TlbEntry& entry) { AuditTlbEntry(v, views, entry); });
    stamps[v] = tlb.insert_seq();
  }
}

void InvariantAuditor::CheckShootdownAcks() {
  machine_.ForEachUnackedShootdown([&](uint64_t id, uint32_t initiator, uint32_t outstanding) {
    Flag(Invariant::kUnackedShootdown,
         Fmt("shootdown %" PRIu64 " begun on vcpu %u still awaits %u ack(s)", id, initiator,
             outstanding));
  });
}

void InvariantAuditor::CheckFrameOwnership() {
  const std::vector<SpaceView> views = Views();
  const auto grant_mapped = GrantMappedFrames();
  hwsim::PhysicalMemory& mem = machine_.memory();
  for (const SpaceView& view : views) {
    view.space->ForEachMapping([&](hwsim::Vaddr vpn, const hwsim::Pte& pte) {
      const ukvm::DomainId owner = mem.OwnerOf(pte.frame);
      if (!owner.valid()) {
        Flag(Invariant::kFreeFrameMapping,
             Fmt("%s %u maps vpn 0x%" PRIx64 " to free frame %" PRIu64, KindName(view.kind),
                 view.domain.value(), vpn, pte.frame));
        return;
      }
      if (owner == view.domain) {
        return;
      }
      switch (view.kind) {
        case SpaceKind::kUkernelTask: {
          ukern::MapNode* node = kernel_->mapdb().Find(view.domain, vpn);
          if (node != nullptr && node->frame == pte.frame) {
            return;
          }
          break;
        }
        case SpaceKind::kVmmDomain:
          if (grant_mapped.contains({view.domain.value(), pte.frame})) {
            return;
          }
          break;
        case SpaceKind::kRaw:
          break;
      }
      Flag(Invariant::kUnownedMapping,
           Fmt("%s %u maps vpn 0x%" PRIx64 " to frame %" PRIu64
               " owned by domain %u with no recorded delegation",
               KindName(view.kind), view.domain.value(), vpn, pte.frame, owner.value()));
    });
  }
}

void InvariantAuditor::CheckSpace(ukvm::DomainId domain, SpaceKind kind,
                                  const hwsim::PageTable& space) {
  space.ForEachMapping([&](hwsim::Vaddr vpn, const hwsim::Pte& pte) {
    CheckMappedPte(domain, kind, vpn, pte);
  });
}

void InvariantAuditor::CheckPrivilegeDiscipline() {
  const std::vector<SpaceView> views = Views();
  for (const SpaceView& view : views) {
    view.space->ForEachMapping([&](hwsim::Vaddr vpn, const hwsim::Pte& pte) {
      CheckMappedPte(view.domain, view.kind, vpn, pte);
    });
  }
}

void InvariantAuditor::CheckMappedPte(ukvm::DomainId domain, SpaceKind kind, hwsim::Vaddr vpn,
                                      const hwsim::Pte& pte) {
  if (!pte.present) {
    return;
  }
  const ukvm::DomainId owner = machine_.memory().OwnerOf(pte.frame);
  if (!owner.valid()) {
    Flag(Invariant::kFreeFrameMapping,
         Fmt("%s %u maps vpn 0x%" PRIx64 " to free frame %" PRIu64, KindName(kind),
             domain.value(), vpn, pte.frame));
    return;
  }
  if (pte.user && owner == kPrivilegedDomain && domain != kPrivilegedDomain) {
    Flag(Invariant::kPrivilegedFrameUserMapped,
         Fmt("%s %u has user-accessible vpn 0x%" PRIx64 " onto kernel-owned frame %" PRIu64,
             KindName(kind), domain.value(), vpn, pte.frame));
  }
  if (kind == SpaceKind::kVmmDomain) {
    const uint64_t va = vpn << machine_.memory().page_shift();
    if (va >= uvmm::kHoleBase && va < uvmm::kHoleEnd) {
      Flag(Invariant::kHypervisorHoleMapping,
           Fmt("domain %u maps va 0x%" PRIx64 " inside the hypervisor hole", domain.value(), va));
    }
  }
}

void InvariantAuditor::CheckGrantRefcounts() {
  if (hv_ == nullptr) {
    return;
  }
  const auto expected = GrantMappedFrames();
  // Live foreign-frame PTEs per (grantee, frame) across all guest spaces.
  std::map<std::pair<uint32_t, hwsim::Frame>, uint64_t> actual;
  hwsim::PhysicalMemory& mem = machine_.memory();
  hv_->ForEachDomain([&](uvmm::Domain& d) {
    d.space.ForEachMapping([&](hwsim::Vaddr vpn, const hwsim::Pte& pte) {
      (void)vpn;
      const ukvm::DomainId owner = mem.OwnerOf(pte.frame);
      if (owner.valid() && owner != d.id) {
        ++actual[{d.id.value(), pte.frame}];
      }
    });
  });
  for (const auto& [key, want] : expected) {
    const auto it = actual.find(key);
    const uint64_t have = it == actual.end() ? 0 : it->second;
    if (have != want) {
      Flag(Invariant::kGrantRefcountMismatch,
           Fmt("grants to domain %u for frame %" PRIu64 " record %" PRIu64
               " active mappings but %" PRIu64 " live PTEs exist",
               key.first, key.second, want, have));
    }
  }
  // Foreign PTEs with no grant at all are CheckFrameOwnership's finding;
  // reporting them here too would double-count the same defect.
}

void InvariantAuditor::CheckMapDbCoherence() {
  if (kernel_ == nullptr) {
    return;
  }
  kernel_->mapdb().ForEachNode([&](const ukern::MapNode& node) {
    ukern::Task* task = kernel_->FindTask(node.task);
    if (task == nullptr || !task->alive) {
      Flag(Invariant::kMapDbIncoherent,
           Fmt("mapdb node (task %u, vpn 0x%" PRIx64 ") refers to a dead task", node.task.value(),
               node.vpn));
      return;
    }
    const hwsim::Pte* pte = task->space.Walk(node.vpn << task->space.page_shift());
    if (pte == nullptr || !pte->present) {
      Flag(Invariant::kMapDbIncoherent,
           Fmt("mapdb node (task %u, vpn 0x%" PRIx64 ") has no live PTE", node.task.value(),
               node.vpn));
      return;
    }
    if (pte->frame != node.frame) {
      Flag(Invariant::kMapDbIncoherent,
           Fmt("mapdb node (task %u, vpn 0x%" PRIx64 ") records frame %" PRIu64
               " but the PTE holds %" PRIu64,
               node.task.value(), node.vpn, node.frame, pte->frame));
    }
  });
}

void InvariantAuditor::CheckDeadDomainReclamation() {
  if (hv_ == nullptr) {
    return;
  }
  hv_->gnttab().ForEachActive([&](const uvmm::GrantTable::GrantView& g) {
    if (!hv_->DomainAlive(g.granter)) {
      Flag(Invariant::kGrantHeldByDeadDomain,
           Fmt("grant (granter %u, ref %u) survives its granter's destruction", g.granter.value(),
               g.ref));
    } else if (!hv_->DomainAlive(g.grantee)) {
      Flag(Invariant::kGrantHeldByDeadDomain,
           Fmt("grant (granter %u, ref %u) still names destroyed grantee %u", g.granter.value(),
               g.ref, g.grantee.value()));
    }
  });
  hv_->evtchn().ForEachChannel([&](const uvmm::EventChannelTable::ChannelView& c) {
    if (!hv_->DomainAlive(c.owner)) {
      Flag(Invariant::kDanglingEventChannel,
           Fmt("port %u of destroyed domain %u is still allocated", c.port, c.owner.value()));
    } else if (c.connected && !hv_->DomainAlive(c.remote_dom)) {
      Flag(Invariant::kDanglingEventChannel,
           Fmt("domain %u port %u is still connected to destroyed domain %u", c.owner.value(),
               c.port, c.remote_dom.value()));
    }
  });
}

void InvariantAuditor::CheckUnmapFlushed(const hwsim::PageTable* space, hwsim::Vaddr vpn) {
  // The dead-space registry knows the salt of a destroyed space without
  // touching the (possibly freed) PageTable; only live spaces are
  // dereferenced for theirs. Recycling makes two probes unverifiable, and
  // both are skipped rather than guessed at:
  //  - the heap address of a destroyed table can be reused by a live one,
  //    so a pointer in both the registry and the live views is ambiguous;
  //  - a dead space's salt can be re-acquired (after the death shootdown
  //    fully acked) by a live space that legitimately maps the same vpn.
  const std::vector<SpaceView> views = Views();
  const bool live = std::any_of(views.begin(), views.end(),
                                [space](const SpaceView& v) { return v.space == space; });
  const hwsim::Machine::DeadSpace* dead = nullptr;
  for (const auto& ds : machine_.dead_spaces()) {
    if (ds.space == space) {
      dead = &ds;
      break;
    }
  }
  if (live && dead != nullptr) {
    return;  // pointer reused: the queued probe's target is gone
  }
  const uint64_t salt = dead != nullptr ? dead->salt : hwsim::Cpu::TlbSaltOf(space);
  bool salt_recycled = false;
  if (dead != nullptr && salt != 0) {
    salt_recycled = std::any_of(views.begin(), views.end(), [salt](const SpaceView& v) {
      return hwsim::Cpu::TlbSaltOf(v.space) == salt;
    });
  }
  for (uint32_t v = 0; v < machine_.num_vcpus(); ++v) {
    const hwsim::Cpu& cpu = machine_.cpu(v);
    const hwsim::Tlb& tlb = cpu.tlb();
    if (tlb.Probe(vpn).has_value() && cpu.salt0_space() == space) {
      Flag(Invariant::kTlbStale,
           Fmt("unmapped vpn 0x%" PRIx64 " still translatable via vcpu %u's untagged TLB key", vpn,
               v));
    }
    if (salt != 0 && !salt_recycled && tlb.Probe(vpn ^ salt).has_value()) {
      Flag(Invariant::kTlbStale,
           Fmt("unmapped vpn 0x%" PRIx64 " still translatable via vcpu %u's salted TLB key", vpn,
               v));
    }
  }
}

void InvariantAuditor::CheckTlbInsert(const hwsim::TlbEntry& entry) {
  hwsim::Cpu& cpu = machine_.cpu();
  hwsim::PageTable* space = cpu.address_space();
  if (space == nullptr) {
    return;
  }
  const hwsim::Vaddr vpn = entry.vpn ^ cpu.tlb_salt();
  const hwsim::Pte* pte = space->Walk(vpn << space->page_shift());
  if (pte == nullptr || !pte->present) {
    Flag(Invariant::kTlbStale,
         Fmt("TLB insert for vpn 0x%" PRIx64 " with no backing PTE", vpn));
    return;
  }
  if (pte->frame != entry.frame) {
    Flag(Invariant::kTlbMismatch,
         Fmt("TLB insert for vpn 0x%" PRIx64 " caches frame %" PRIu64 " but the PTE says %" PRIu64,
             vpn, entry.frame, pte->frame));
    return;
  }
  if ((entry.writable && !pte->writable) || (entry.user && !pte->user)) {
    Flag(Invariant::kTlbMismatch,
         Fmt("TLB insert for vpn 0x%" PRIx64 " grants permissions the PTE withholds", vpn));
  }
}

void InvariantAuditor::CheckDmaTarget(const hwsim::DmaAccess& access) {
  const ukvm::DomainId owner = machine_.memory().OwnerOf(access.frame);
  if (!owner.valid()) {
    Flag(Invariant::kDmaToFreeFrame,
         Fmt("device DMA %s free frame %" PRIu64 " (initiated under domain %u)",
             access.to_memory ? "writes" : "reads", access.frame, access.initiator.value()));
    return;
  }
  if (owner == kPrivilegedDomain) {
    Flag(Invariant::kDmaToPrivilegedFrame,
         Fmt("device DMA %s kernel-owned frame %" PRIu64 " (initiated under domain %u)",
             access.to_memory ? "writes" : "reads", access.frame, access.initiator.value()));
  }
}

void InvariantAuditor::CheckAll() {
  CheckTlbCoherence();
  CheckFrameOwnership();
  CheckPrivilegeDiscipline();
  CheckGrantRefcounts();
  CheckMapDbCoherence();
  CheckShootdownAcks();
  CheckDeadDomainReclamation();
}

}  // namespace ucheck
