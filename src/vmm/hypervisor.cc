#include "src/vmm/hypervisor.h"

#include <cassert>
#include <type_traits>

#include "src/core/log.h"

namespace uvmm {

using ukvm::CrossingKind;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;
using ukvm::Result;

const char* HypercallName(HypercallNr nr) {
  switch (nr) {
    case HypercallNr::kSetTrapTable:
      return "set_trap_table";
    case HypercallNr::kMmuUpdate:
      return "mmu_update";
    case HypercallNr::kSetSegment:
      return "set_segment";
    case HypercallNr::kStackSwitch:
      return "stack_switch";
    case HypercallNr::kSchedOp:
      return "sched_op";
    case HypercallNr::kEventChannelOp:
      return "event_channel_op";
    case HypercallNr::kGrantTableOp:
      return "grant_table_op";
    case HypercallNr::kVcpuOp:
      return "vcpu_op";
    case HypercallNr::kSetTimerOp:
      return "set_timer_op";
    case HypercallNr::kConsoleIo:
      return "console_io";
    case HypercallNr::kPhysdevOp:
      return "physdev_op";
    case HypercallNr::kDomctl:
      return "domctl";
    case HypercallNr::kMulticall:
      return "multicall";
    case HypercallNr::kTlbShootdown:
      return "tlb_shootdown";
  }
  return "?";
}

Hypervisor::Hypervisor(hwsim::Machine& machine)
    : machine_(machine), sched_(machine), exc_(machine, sched_, kVmmDomain), pt_virt_(machine) {
  evtchn_ = std::make_unique<EventChannelTable>(
      [this](DomainId target, uint32_t port) { DeliverUpcall(target, port); }, machine_);
  gnttab_ = std::make_unique<GrantTable>(
      machine_, [this](DomainId dom) { return FindDomain(dom); });
  auto& ledger = machine_.ledger();
  mech_hypercall_ = ledger.InternMechanism("xen.hypercall", CrossingKind::kSyncCall);
  mech_hypercall_ret_ =
      ledger.InternMechanism("xen.hypercall.return", CrossingKind::kSyncReply);
  mech_virq_ = ledger.InternMechanism("xen.virq", CrossingKind::kInterrupt);
  mech_upcall_ = ledger.InternMechanism("xen.evtchn.send", CrossingKind::kAsyncNotify);
  ukvm::Tracer& tracer = machine_.tracer();
  for (uint32_t i = 0; i < kHypercallCount; ++i) {
    const std::string name =
        std::string("xen.hc.") + HypercallName(static_cast<HypercallNr>(i));
    trace_span_names_[i] = tracer.InternName(name);
    trace_frames_[i] = tracer.profiler().InternFrame(name);
  }
  trace_upcall_name_ = tracer.InternName("xen.upcall");
  trace_upcall_frame_ = tracer.profiler().InternFrame("xen.upcall");
  trace_softirq_name_ = tracer.InternName("xen.softirq");
  trace_softirq_frame_ = tracer.profiler().InternFrame("xen.softirq");
  trace_virq_frame_ = tracer.profiler().InternFrame("xen.virq");
  machine_.SetTrapHandler(this);
}

Hypervisor::~Hypervisor() {
  if (machine_.trap_handler() == this) {
    machine_.SetTrapHandler(nullptr);
  }
}

// --- Domain lifecycle ----------------------------------------------------------

Result<DomainId> Hypervisor::CreateDomain(const std::string& name, uint64_t pages,
                                          bool privileged) {
  if (pages == 0 || pages > machine_.memory().free_frames()) {
    return Err::kNoMemory;
  }
  const DomainId id{next_domain_id_++};
  auto dom = std::make_unique<Domain>(id, name, machine_, privileged);
  dom->p2m.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    auto frame = machine_.memory().AllocFrame(id);
    assert(frame.ok());
    dom->p2m.push_back(*frame);
  }
  // Paravirtual segment setup: all segments truncated below the hypervisor
  // hole, so the fast system-call gate can be validated.
  dom->segments.TruncateAll(kHoleBase);
  machine_.ChargeTo(kVmmDomain, machine_.costs().kernel_op * pages / 8 +
                                     machine_.costs().kernel_op);
  if (privileged && !dom0_.valid()) {
    dom0_ = id;
  }
  domains_.emplace(id, std::move(dom));
  return id;
}

Err Hypervisor::DestroyDomain(DomainId id) {
  Domain* dom = FindDomain(id);
  if (dom == nullptr || !dom->alive) {
    return Err::kBadHandle;
  }
  // Collect connected event-channel peers before teardown severs the
  // channels: they are the domains owed a kDomainDead notification.
  const std::vector<DomainId> peers = evtchn_->PeersOf(id);
  machine_.ChargeTo(kVmmDomain, machine_.costs().kernel_op);
  dom->alive = false;
  // Address-space death: every vCPU must drop the domain's translations
  // before its frames are freed and recycled. Registers the space in the
  // machine's dead-space registry and quarantine-releases its TLB salt.
  machine_.ShootdownSpaceDeath(&dom->space);
  evtchn_->CloseAllOf(id);
  // Force-revoke everything the corpse granted or held: surviving grantees
  // lose their PTEs (batched shootdown per victim space) so no window onto
  // the freed frames outlives the domain.
  const GrantTable::ReclaimStats stats = gnttab_->ReclaimDeadDomain(id);
  machine_.counters().AddNamed("xen.reclaim.grants", stats.grants_revoked);
  machine_.counters().AddNamed("xen.reclaim.unmaps", stats.mappings_unmapped);
  for (auto it = irq_bindings_.begin(); it != irq_bindings_.end();) {
    if (it->second.first == id) {
      it = irq_bindings_.erase(it);
    } else {
      ++it;
    }
  }
  for (hwsim::Frame frame : dom->p2m) {
    // Frames flipped away now belong to another domain; free only our own.
    if (machine_.memory().OwnerOf(frame) == id) {
      (void)machine_.memory().FreeFrame(frame);
    }
  }
  dom->p2m.clear();
  sched_.Detach(dom);
  if (machine_.cpu().current_domain() == id) {
    machine_.cpu().SetDomain(kVmmDomain);
    machine_.cpu().SetMode(hwsim::PrivLevel::kPrivileged);
  }
  // With the corpse fully reclaimed, tell the survivors (those that
  // registered a handler).
  for (DomainId peer : peers) {
    DeliverDomainDead(peer, id);
  }
  if (hwsim::Observer* race = machine_.race_observer()) {
    // The corpse's mappings were force-revoked with a shootdown above;
    // that revocation orders its accesses before anything later.
    race->ContextDead(id);
  }
  return Err::kNone;
}

Domain* Hypervisor::FindDomain(DomainId dom) {
  auto it = domains_.find(dom);
  return it == domains_.end() ? nullptr : it->second.get();
}

bool Hypervisor::DomainAlive(DomainId dom) {
  Domain* d = FindDomain(dom);
  return d != nullptr && d->alive;
}

void Hypervisor::ForEachDomain(const std::function<void(Domain&)>& fn) {
  for (const auto& [id, dom] : domains_) {
    if (dom->alive) {
      fn(*dom);
    }
  }
}

// --- Hypercall plumbing -----------------------------------------------------------

template <typename Body>
auto Hypervisor::Hypercall(DomainId dom, HypercallNr nr, Body&& body) {
  using R = std::invoke_result_t<Body&, Domain&>;
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return R{Err::kBadHandle};
  }
  // The span and frame open before the entry charge and close after the
  // return charge, so the whole hypercall lands inside them; upcall
  // reentrancy nests hypercalls LIFO.
  const auto i = static_cast<size_t>(nr);
  ukvm::SpanScope span(machine_.tracer(), trace_span_names_[i], dom);
  ukvm::ProfScope frame(machine_.tracer(), trace_frames_[i]);
  const hwsim::CostModel& costs = machine_.costs();
  machine_.Charge(costs.hypercall_entry);
  sched_.EnterHypervisor();
  ++d->hypercalls;
  ++total_hypercalls_;
  ++hypercall_counts_[i];
  machine_.ledger().Record(mech_hypercall_, dom, kVmmDomain, costs.hypercall_entry, 0);
  const uint64_t edge = hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kHypercall, dom.value());
  if (hwsim::Observer* race = machine_.race_observer()) {
    // Degenerate self-edge (release+acquire by the same context): entry and
    // exit order nothing across domains — the detector must not let the VMM
    // hub transitively serialize all guests, so the crossing events above
    // are also excluded from its edge stream (SetHubDomain).
    race->Release(dom, edge);
  }

  R result = body(*d);

  if (d->alive) {
    sched_.SwitchTo(*d, hwsim::PrivLevel::kGuestKernel);
  }
  machine_.Charge(costs.hypercall_return);
  machine_.ledger().Record(mech_hypercall_ret_, kVmmDomain, dom, costs.hypercall_return, 0);
  if (hwsim::Observer* race = machine_.race_observer()) {
    race->Acquire(dom, edge);
  }
  return result;
}

uint64_t Hypervisor::HypercallCountOf(HypercallNr nr) const {
  return hypercall_counts_[static_cast<size_t>(nr)];
}

// --- Hypercalls ----------------------------------------------------------------------

Err Hypervisor::HcSetTrapTable(DomainId dom,
                               std::function<uint64_t(hwsim::TrapFrame&)> syscall_entry,
                               std::function<Err(hwsim::Vaddr, bool)> pagefault_entry,
                               bool request_fast_trap) {
  return Hypercall(dom, HypercallNr::kSetTrapTable, [&](Domain& d) {
    d.syscall_entry = std::move(syscall_entry);
    d.pagefault_entry = std::move(pagefault_entry);
    d.fast_trap_requested = request_fast_trap;
    exc_.RecheckFastPath(d);
    return Err::kNone;
  });
}

Err Hypervisor::HcSetUpcall(DomainId dom, std::function<void(uint32_t)> upcall) {
  return Hypercall(dom, HypercallNr::kVcpuOp, [&](Domain& d) {
    d.evtchn_upcall = std::move(upcall);
    return Err::kNone;
  });
}

Err Hypervisor::HcSetDomainDeadHandler(DomainId dom, std::function<void(DomainId)> handler) {
  return Hypercall(dom, HypercallNr::kVcpuOp, [&](Domain& d) {
    d.domain_dead_upcall = std::move(handler);
    return Err::kNone;
  });
}

Err Hypervisor::HcSetExceptionHandler(DomainId dom,
                                      std::function<Err(hwsim::TrapFrame&)> handler) {
  return Hypercall(dom, HypercallNr::kSetTrapTable, [&](Domain& d) {
    d.exception_entry = std::move(handler);
    return Err::kNone;
  });
}

Err Hypervisor::HcSetSegment(DomainId dom, hwsim::SegmentReg reg,
                             hwsim::SegmentDescriptor descriptor) {
  return Hypercall(dom, HypercallNr::kSetSegment, [&](Domain& d) {
    machine_.Charge(machine_.costs().kernel_op);  // descriptor validation
    d.segments.Set(reg, descriptor);
    machine_.cpu().ChargeSegmentReloads(1);
    // The moment any segment stops excluding the hypervisor, the trap-gate
    // shortcut becomes unsafe and is revoked (§3.2: "Linux's latest glibc
    // violates the assumption and renders the shortcut useless").
    exc_.RecheckFastPath(d);
    return Err::kNone;
  });
}

Err Hypervisor::HcMmuUpdate(DomainId dom, std::span<const MmuUpdate> updates) {
  return Hypercall(dom, HypercallNr::kMmuUpdate,
                   [&](Domain& d) { return pt_virt_.Apply(d, updates); });
}

Result<uint32_t> Hypervisor::HcEvtchnAllocUnbound(DomainId dom, DomainId remote) {
  return Hypercall(dom, HypercallNr::kEventChannelOp, [&](Domain&) {
    machine_.Charge(machine_.costs().kernel_op);
    return evtchn_->AllocUnbound(dom, remote);
  });
}

Result<uint32_t> Hypervisor::HcEvtchnBind(DomainId dom, DomainId remote_dom,
                                          uint32_t remote_port) {
  return Hypercall(dom, HypercallNr::kEventChannelOp, [&](Domain&) {
    machine_.Charge(machine_.costs().kernel_op);
    return evtchn_->BindInterdomain(dom, remote_dom, remote_port);
  });
}

Err Hypervisor::EvtchnSend(DomainId dom, uint32_t port) {
  machine_.Charge(machine_.costs().kernel_op);
  const uint64_t t0 = machine_.Now();
  const Err err = evtchn_->Send(dom, port);
  if (err == Err::kNone) {
    machine_.ledger().Record(mech_upcall_, dom, DomainId::Invalid(), machine_.Now() - t0, 0);
  }
  return err;
}

Err Hypervisor::HcEvtchnSend(DomainId dom, uint32_t port) {
  return Hypercall(dom, HypercallNr::kEventChannelOp,
                   [&](Domain&) { return EvtchnSend(dom, port); });
}

Err Hypervisor::HcEvtchnClose(DomainId dom, uint32_t port) {
  return Hypercall(dom, HypercallNr::kEventChannelOp,
                   [&](Domain&) { return evtchn_->Close(dom, port); });
}

Err Hypervisor::HcEvtchnMask(DomainId dom, uint32_t port, bool masked) {
  return Hypercall(dom, HypercallNr::kEventChannelOp,
                   [&](Domain&) { return evtchn_->SetMask(dom, port, masked); });
}

Result<uint32_t> Hypervisor::HcGrantAccess(DomainId dom, DomainId grantee, Pfn pfn,
                                           bool writable) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->GrantAccess(dom, grantee, pfn, writable); });
}

Result<uint32_t> Hypervisor::HcGrantTransferSlot(DomainId dom, DomainId grantee, Pfn pfn) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->GrantTransfer(dom, grantee, pfn); });
}

Err Hypervisor::HcGrantEnd(DomainId dom, uint32_t ref) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->EndGrant(dom, ref); });
}

Err Hypervisor::HcGrantMap(DomainId dom, DomainId granter, uint32_t ref, hwsim::Vaddr va,
                           bool write) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->MapGrant(dom, granter, ref, va, write); });
}

Err Hypervisor::HcGrantUnmap(DomainId dom, DomainId granter, uint32_t ref, hwsim::Vaddr va) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->UnmapGrant(dom, granter, ref, va); });
}

Err Hypervisor::HcGrantCopy(DomainId dom, DomainId granter, uint32_t ref, uint64_t grant_off,
                            Pfn local_pfn, uint64_t local_off, uint32_t len, bool to_grant) {
  return Hypercall(dom, HypercallNr::kGrantTableOp, [&](Domain&) {
    return gnttab_->Copy(dom, granter, ref, grant_off, local_pfn, local_off, len, to_grant);
  });
}

Result<hwsim::Frame> Hypervisor::HcGrantTransfer(DomainId dom, Pfn pfn, DomainId granter,
                                                 uint32_t ref) {
  return Hypercall(dom, HypercallNr::kGrantTableOp,
                   [&](Domain&) { return gnttab_->Transfer(dom, pfn, granter, ref); });
}

Err Hypervisor::HcTlbShootdown(DomainId dom, std::span<const hwsim::Vaddr> vas) {
  return Hypercall(dom, HypercallNr::kTlbShootdown, [&](Domain& d) {
    machine_.Charge(machine_.costs().kernel_op);  // validate the batch
    std::vector<hwsim::Vaddr> vpns;
    vpns.reserve(vas.size());
    for (const hwsim::Vaddr va : vas) {
      vpns.push_back(d.space.VpnOf(va));
    }
    // Local invalidation is priced like the guest's own invlpg loop; the
    // machine protocol adds the IPI round (free on a single-vCPU machine).
    machine_.Charge(vpns.empty() ? machine_.costs().tlb_flush_full
                                 : machine_.costs().tlb_flush_page * vpns.size());
    machine_.TlbShootdown(&d.space, vpns);
    return Err::kNone;
  });
}

MulticallOutcome Hypervisor::HcMulticall(DomainId dom, std::span<const MulticallOp> ops) {
  return Hypercall(dom, HypercallNr::kMulticall, [&](Domain& d) {
    MulticallOutcome out;
    out.results.reserve(ops.size());
    multicall_subops_ += ops.size();
    // Transfers in the batch share one TLB shootdown, charged at EndBatch.
    gnttab_->BeginBatch();
    // kTlbShootdown sub-ops likewise coalesce into one deferred IPI round.
    std::vector<hwsim::Vaddr> shootdown_vpns;
    for (const MulticallOp& op : ops) {
      MulticallResult r;
      switch (op.kind) {
        case MulticallOp::Kind::kGrantAccess: {
          auto ref = gnttab_->GrantAccess(dom, op.peer, op.pfn, op.flag);
          r.status = ref.ok() ? Err::kNone : ref.error();
          r.value = ref.ok() ? *ref : 0;
          break;
        }
        case MulticallOp::Kind::kGrantTransferSlot: {
          auto ref = gnttab_->GrantTransfer(dom, op.peer, op.pfn);
          r.status = ref.ok() ? Err::kNone : ref.error();
          r.value = ref.ok() ? *ref : 0;
          break;
        }
        case MulticallOp::Kind::kGrantEnd:
          r.status = gnttab_->EndGrant(dom, op.ref);
          break;
        case MulticallOp::Kind::kGrantMap:
          r.status = gnttab_->MapGrant(dom, op.peer, op.ref, op.va, op.flag);
          break;
        case MulticallOp::Kind::kGrantUnmap:
          r.status = gnttab_->UnmapGrant(dom, op.peer, op.ref, op.va);
          break;
        case MulticallOp::Kind::kGrantCopy:
          r.status = gnttab_->Copy(dom, op.peer, op.ref, op.grant_off, op.pfn, op.local_off,
                                   op.len, op.flag);
          break;
        case MulticallOp::Kind::kGrantTransfer: {
          auto frame = gnttab_->Transfer(dom, op.pfn, op.peer, op.ref);
          r.status = frame.ok() ? Err::kNone : frame.error();
          r.value = frame.ok() ? *frame : 0;
          break;
        }
        case MulticallOp::Kind::kEvtchnSend:
          r.status = EvtchnSend(dom, op.port);
          break;
        case MulticallOp::Kind::kTlbShootdown: {
          // Queue `len` pages starting at va; the flush itself (local invlpg
          // loop + one shared IPI round) happens after the batch completes.
          machine_.Charge(machine_.costs().kernel_op);
          const uint32_t pages = op.len == 0 ? 1 : op.len;
          for (uint32_t i = 0; i < pages; ++i) {
            shootdown_vpns.push_back(d.space.VpnOf(op.va) + i);
          }
          break;
        }
      }
      out.results.push_back(r);
      if (r.status != Err::kNone) {
        // Xen aborts a multicall at the first failing sub-op; earlier sub-ops
        // stay applied and their results stand.
        out.status = r.status;
        break;
      }
      ++out.completed;
    }
    gnttab_->EndBatch();
    if (!shootdown_vpns.empty()) {
      machine_.Charge(machine_.costs().tlb_flush_page * shootdown_vpns.size());
      machine_.TlbShootdown(&d.space, shootdown_vpns);
    }
    return out;
  });
}

Err Hypervisor::HcBindIrq(DomainId dom, IrqLine line, uint32_t port) {
  return Hypercall(dom, HypercallNr::kPhysdevOp, [&](Domain& d) {
    if (!d.privileged) {
      return Err::kPermissionDenied;  // only Dom0/driver domains control hardware
    }
    irq_bindings_[line] = {dom, port};
    return Err::kNone;
  });
}

Err Hypervisor::HcConsoleIo(DomainId dom, const std::string& text) {
  return Hypercall(dom, HypercallNr::kConsoleIo, [&](Domain& d) {
    machine_.ChargeCopy(text.size());
    console_log_.push_back(d.name + ": " + text);
    return Err::kNone;
  });
}

Err Hypervisor::HcSchedYield(DomainId dom) {
  return Hypercall(dom, HypercallNr::kSchedOp, [&](Domain&) {
    machine_.Charge(machine_.costs().schedule_decision);
    return Err::kNone;
  });
}

// --- Guest execution support --------------------------------------------------------

template <typename Body>
void Hypervisor::RunInDomainKernel(Domain& d, uint32_t span_name, uint32_t frame_id,
                                   uint64_t dispatch_cost, Body&& body) {
  Domain* prev = sched_.current();
  const hwsim::PrivLevel prev_mode = machine_.cpu().mode();
  const DomainId prev_domain = machine_.cpu().current_domain();

  ukvm::SpanScope span(machine_.tracer(), span_name, d.id);
  ukvm::ProfScope frame(machine_.tracer(), frame_id);
  machine_.Charge(dispatch_cost);
  sched_.SwitchTo(d, hwsim::PrivLevel::kGuestKernel);
  body();

  if (prev != nullptr && prev->alive && prev != &d) {
    sched_.SwitchTo(*prev, prev_mode);
  } else if (prev == &d) {
    machine_.cpu().SetMode(prev_mode);
  } else {
    machine_.cpu().SetDomain(prev_domain);
    machine_.cpu().SetMode(prev_mode);
  }
}

Err Hypervisor::RunGuestUser(DomainId dom, const std::function<void()>& fn) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return Err::kBadHandle;
  }
  sched_.SwitchTo(*d, hwsim::PrivLevel::kUser);
  machine_.cpu().SetInterruptsEnabled(true);
  machine_.DeliverPendingInterrupts();
  fn();
  return Err::kNone;
}

Err Hypervisor::RunAsDomainKernel(DomainId dom, const std::function<void()>& fn) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return Err::kBadHandle;
  }
  // Softirq-style deferred work, not an upcall: no virtual interrupt is
  // injected, and the dispatch costs one kernel op.
  RunInDomainKernel(*d, trace_softirq_name_, trace_softirq_frame_, machine_.costs().kernel_op,
                    fn);
  return Err::kNone;
}

uint64_t Hypervisor::GuestSyscall(DomainId dom, hwsim::TrapFrame& frame) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return static_cast<uint64_t>(-1);
  }
  return exc_.GuestSyscall(*d, frame);
}

Err Hypervisor::GuestPageFault(DomainId dom, hwsim::Vaddr va, bool write) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return Err::kBadHandle;
  }
  return exc_.GuestPageFault(*d, va, write);
}

Err Hypervisor::GuestException(DomainId dom, hwsim::TrapFrame& frame) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive) {
    return Err::kBadHandle;
  }
  return exc_.GuestException(*d, frame);
}

// --- Upcall delivery ------------------------------------------------------------------

void Hypervisor::DeliverUpcall(DomainId target, uint32_t port) {
  Domain* d = FindDomain(target);
  if (d == nullptr || !d->alive || !d->evtchn_upcall) {
    return;
  }
  // Inject the virtual interrupt into the target's kernel context.
  auto upcall = [&] {
    if (hwsim::Observer* race = machine_.race_observer()) {
      // Acquire half of send->upcall: one upcall covers every Send latched
      // into the pending bit since the last consume.
      race->Acquire(target,
                    hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kEvtchn, target.value(), port));
    }
    // E22: the upcall handler runs on behalf of whichever request kicked the
    // channel — adopt its stash (a crossing node [send, now]) for the scope
    // of the handler so ring pops and copies attach to the right DAG.
    const ukvm::ReqTraceRef req_ref = machine_.reqtrace().ChannelAdopt(target, port, target);
    ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
    (void)evtchn_->ConsumePending(target, port);
    ++d->upcalls;
    d->evtchn_upcall(port);
  };
  RunInDomainKernel(*d, trace_upcall_name_, trace_upcall_frame_,
                    machine_.costs().interrupt_dispatch, upcall);
}

void Hypervisor::DeliverDomainDead(DomainId target, DomainId dead) {
  Domain* d = FindDomain(target);
  if (d == nullptr || !d->alive || !d->domain_dead_upcall) {
    return;
  }
  RunInDomainKernel(*d, trace_upcall_name_, trace_upcall_frame_,
                    machine_.costs().interrupt_dispatch, [&] {
                      ++d->upcalls;
                      d->domain_dead_upcall(dead);
                    });
}

// --- hwsim::TrapHandler ------------------------------------------------------------------

void Hypervisor::HandleTrap(hwsim::TrapFrame& frame) {
  const DomainId dom = machine_.cpu().current_domain();
  switch (frame.vector) {
    case hwsim::TrapVector::kSyscall:
      frame.regs[0] = GuestSyscall(dom, frame);
      break;
    case hwsim::TrapVector::kPageFault:
      frame.regs[0] = static_cast<uint64_t>(GuestPageFault(dom, frame.fault_addr,
                                                           frame.write_access));
      break;
    default:
      frame.regs[0] = static_cast<uint64_t>(GuestException(dom, frame));
      break;
  }
}

void Hypervisor::HandleInterrupt(IrqLine line) {
  auto it = irq_bindings_.find(line);
  if (it == irq_bindings_.end()) {
    return;  // unbound hardware interrupt
  }
  const auto [target, port] = it->second;
  // Interrupt demultiplexing is genuine hypervisor work.
  ukvm::ProfScope frame(machine_.tracer(), trace_virq_frame_);
  machine_.ChargeTo(kVmmDomain, machine_.costs().kernel_op);
  machine_.ledger().Record(mech_virq_, ukvm::kHardwareDomain, target, 0, 0);
  Domain* d = FindDomain(target);
  if (d == nullptr || !d->alive) {
    return;
  }
  DeliverUpcall(target, port);
}

}  // namespace uvmm
