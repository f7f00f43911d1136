// The Xen-style hypervisor.
//
// This is the "rich variety of primitives" system of paper §2.2: domains,
// a fourteen-entry hypercall table (including Xen's multicall batching
// entry), event channels, grant tables (map, copy,
// and page-flip transfer), paravirtual page-table updates, a virtualized
// interrupt controller routing hardware IRQs to driver domains, exception
// virtualisation with the fragile fast system-call gate, and a privileged
// Dom0. Each primitive carries its own validation and security mechanism —
// the structural contrast with the microkernel's single IPC primitive that
// experiment E7 tabulates.

#ifndef UKVM_SRC_VMM_HYPERVISOR_H_
#define UKVM_SRC_VMM_HYPERVISOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/hw/trap.h"
#include "src/vmm/domain.h"
#include "src/vmm/event_channel.h"
#include "src/vmm/exception_virt.h"
#include "src/vmm/grant_table.h"
#include "src/vmm/pt_virt.h"
#include "src/vmm/sched.h"

namespace uvmm {

// One sub-operation of a multicall batch (Xen's multicall_entry_t, typed).
// A tagged union over the hot-path grant and event-channel operations; the
// fields each kind consumes mirror the corresponding Hc* signature.
struct MulticallOp {
  enum class Kind : uint8_t {
    kGrantAccess,        // peer=grantee, pfn, flag=writable -> value=gref
    kGrantTransferSlot,  // peer=grantee, pfn               -> value=gref
    kGrantEnd,           // ref
    kGrantMap,           // peer=granter, ref, va, flag=write
    kGrantUnmap,         // peer=granter, ref, va
    kGrantCopy,          // peer=granter, ref, grant_off, pfn, local_off, len, flag=to_grant
    kGrantTransfer,      // peer=granter, ref, pfn           -> value=received frame
    kEvtchnSend,         // port
    kTlbShootdown,       // va, len=pages: queue for one deferred flush round
  };
  Kind kind = Kind::kEvtchnSend;
  ukvm::DomainId peer = ukvm::DomainId::Invalid();
  uint32_t ref = 0;
  Pfn pfn = 0;
  hwsim::Vaddr va = 0;
  uint64_t grant_off = 0;
  uint64_t local_off = 0;
  uint32_t len = 0;
  uint32_t port = 0;
  bool flag = false;
};

struct MulticallResult {
  ukvm::Err status = ukvm::Err::kNone;
  uint64_t value = 0;  // gref or received frame, per the op kind
};

struct MulticallOutcome {
  // kNone when every sub-op succeeded; otherwise the first failure, with
  // Xen semantics: sub-ops [0, completed) are applied and stay applied.
  ukvm::Err status = ukvm::Err::kNone;
  size_t completed = 0;
  std::vector<MulticallResult> results{};  // one per attempted sub-op
  bool ok() const { return status == ukvm::Err::kNone; }
};

// The hypercall table — the VMM ABI (contrast: ukern::SyscallNr has 6
// entries, and 5 of its 6 are degenerate; IPC does almost everything).
enum class HypercallNr : uint32_t {
  kSetTrapTable = 0,
  kMmuUpdate = 1,
  kSetSegment = 2,      // set_gdt / update_descriptor
  kStackSwitch = 3,
  kSchedOp = 4,
  kEventChannelOp = 5,
  kGrantTableOp = 6,
  kVcpuOp = 7,
  kSetTimerOp = 8,
  kConsoleIo = 9,
  kPhysdevOp = 10,      // interrupt-controller virtualisation
  kDomctl = 11,         // domain lifecycle (privileged)
  kMulticall = 12,      // batch of sub-hypercalls, one entry/exit
  kTlbShootdown = 13,   // multi-vCPU TLB flush of the caller's own pages
};
inline constexpr uint32_t kHypercallCount = 14;

const char* HypercallName(HypercallNr nr);

class Hypervisor : public hwsim::TrapHandler {
 public:
  explicit Hypervisor(hwsim::Machine& machine);
  ~Hypervisor() override;

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  hwsim::Machine& machine() { return machine_; }
  ukvm::DomainId vmm_domain() const { return kVmmDomain; }

  // --- Domain lifecycle (Domctl; building a domain is Dom0 tooling) ---------

  // Creates a domain with `pages` frames of pseudo-physical memory. The
  // first domain created is Dom0 if `privileged`.
  ukvm::Result<ukvm::DomainId> CreateDomain(const std::string& name, uint64_t pages,
                                            bool privileged);
  // Domain death (E19): force-revokes the domain's grants (unmapping
  // surviving grantees' PTEs, with E18-batched shootdowns), frees its frames
  // and delivers a kDomainDead upcall to every event-channel peer.
  ukvm::Err DestroyDomain(ukvm::DomainId dom);
  Domain* FindDomain(ukvm::DomainId dom);
  bool DomainAlive(ukvm::DomainId dom);

  // Visits every live domain (order unspecified); for the invariant auditor,
  // whose space views hold mutable table pointers, hence the non-const refs.
  void ForEachDomain(const std::function<void(Domain&)>& fn);

  EventChannelTable& evtchn() { return *evtchn_; }
  GrantTable& gnttab() { return *gnttab_; }
  DomainScheduler& sched() { return sched_; }
  ExceptionVirt& exceptions() { return exc_; }
  PtVirt& pt_virt() { return pt_virt_; }

  // --- Hypercalls ------------------------------------------------------------
  // Each Hc* models one hypercall from `dom`'s guest kernel: entry/exit
  // costs, a crossing-ledger record, and the per-domain hypercall counter.

  ukvm::Err HcSetTrapTable(ukvm::DomainId dom,
                           std::function<uint64_t(hwsim::TrapFrame&)> syscall_entry,
                           std::function<ukvm::Err(hwsim::Vaddr, bool)> pagefault_entry,
                           bool request_fast_trap);
  ukvm::Err HcSetUpcall(ukvm::DomainId dom, std::function<void(uint32_t)> upcall);
  // Registers the kDomainDead handler (VcpuOp, like the event upcall).
  ukvm::Err HcSetDomainDeadHandler(ukvm::DomainId dom,
                                   std::function<void(ukvm::DomainId)> handler);
  ukvm::Err HcSetExceptionHandler(ukvm::DomainId dom,
                                  std::function<ukvm::Err(hwsim::TrapFrame&)> handler);
  ukvm::Err HcSetSegment(ukvm::DomainId dom, hwsim::SegmentReg reg,
                         hwsim::SegmentDescriptor descriptor);
  ukvm::Err HcMmuUpdate(ukvm::DomainId dom, std::span<const MmuUpdate> updates);

  ukvm::Result<uint32_t> HcEvtchnAllocUnbound(ukvm::DomainId dom, ukvm::DomainId remote);
  ukvm::Result<uint32_t> HcEvtchnBind(ukvm::DomainId dom, ukvm::DomainId remote_dom,
                                      uint32_t remote_port);
  ukvm::Err HcEvtchnSend(ukvm::DomainId dom, uint32_t port);
  ukvm::Err HcEvtchnClose(ukvm::DomainId dom, uint32_t port);
  ukvm::Err HcEvtchnMask(ukvm::DomainId dom, uint32_t port, bool masked);

  ukvm::Result<uint32_t> HcGrantAccess(ukvm::DomainId dom, ukvm::DomainId grantee, Pfn pfn,
                                       bool writable);
  ukvm::Result<uint32_t> HcGrantTransferSlot(ukvm::DomainId dom, ukvm::DomainId grantee, Pfn pfn);
  ukvm::Err HcGrantEnd(ukvm::DomainId dom, uint32_t ref);
  ukvm::Err HcGrantMap(ukvm::DomainId dom, ukvm::DomainId granter, uint32_t ref, hwsim::Vaddr va,
                       bool write);
  ukvm::Err HcGrantUnmap(ukvm::DomainId dom, ukvm::DomainId granter, uint32_t ref,
                         hwsim::Vaddr va);
  ukvm::Err HcGrantCopy(ukvm::DomainId dom, ukvm::DomainId granter, uint32_t ref,
                        uint64_t grant_off, Pfn local_pfn, uint64_t local_off, uint32_t len,
                        bool to_grant);
  ukvm::Result<hwsim::Frame> HcGrantTransfer(ukvm::DomainId dom, Pfn pfn, ukvm::DomainId granter,
                                             uint32_t ref);

  // Flushes `vas` (page-aligned or not; one page each) of the caller's own
  // address space from every vCPU's TLB: one hypercall, one IPI round for
  // the whole span. Guests call this after batching their own PTE updates
  // — the multi-vCPU analogue of Xen's UVMF_TLB_FLUSH|ALL flags.
  ukvm::Err HcTlbShootdown(ukvm::DomainId dom, std::span<const hwsim::Vaddr> vas);

  // Executes `ops` as one hypercall: a single entry/exit pair (one
  // hypercall_entry/return charge, one ledger call/reply pair) amortised
  // over the whole vector, with each sub-op dispatched to the grant-table /
  // event-channel internals so its own kernel work and mechanism-level
  // ledger records still happen. Xen semantics on failure: stop at the
  // first failing sub-op, leave [0, completed) applied. Grant transfers
  // inside the batch share one deferred TLB shootdown (GrantTable batch).
  MulticallOutcome HcMulticall(ukvm::DomainId dom, std::span<const MulticallOp> ops);

  // Binds hardware interrupt `line` to (`dom`, `port`): PhysdevOp, Dom0 or a
  // privileged driver domain only.
  ukvm::Err HcBindIrq(ukvm::DomainId dom, ukvm::IrqLine line, uint32_t port);

  ukvm::Err HcConsoleIo(ukvm::DomainId dom, const std::string& text);
  ukvm::Err HcSchedYield(ukvm::DomainId dom);

  // --- Guest execution support -------------------------------------------------

  // Runs `fn` as guest-user code of `dom` (context switch in and out).
  ukvm::Err RunGuestUser(ukvm::DomainId dom, const std::function<void()>& fn);

  // Runs `fn` in `dom`'s kernel context, saving and restoring the current
  // one. Deferred driver work (NAPI poll rounds) runs off machine timer
  // events, outside any domain; it must still be charged to the domain that
  // owns the driver, the way a softirq is charged to its CPU's current task.
  ukvm::Err RunAsDomainKernel(ukvm::DomainId dom, const std::function<void()>& fn);

  // A guest application's system call (experiment E2's measured operation).
  uint64_t GuestSyscall(ukvm::DomainId dom, hwsim::TrapFrame& frame);
  ukvm::Err GuestPageFault(ukvm::DomainId dom, hwsim::Vaddr va, bool write);
  ukvm::Err GuestException(ukvm::DomainId dom, hwsim::TrapFrame& frame);

  // --- hwsim::TrapHandler --------------------------------------------------------

  void HandleTrap(hwsim::TrapFrame& frame) override;
  void HandleInterrupt(ukvm::IrqLine line) override;

  // --- Introspection ---------------------------------------------------------------

  uint64_t total_hypercalls() const { return total_hypercalls_; }
  uint64_t HypercallCountOf(HypercallNr nr) const;
  // Sub-operations executed under multicall batches (per-sub-op accounting;
  // each multicall itself counts once in total_hypercalls()).
  uint64_t multicall_subops() const { return multicall_subops_; }
  const std::vector<std::string>& console_log() const { return console_log_; }

 private:
  static constexpr ukvm::DomainId kVmmDomain{0};

  // The one hypercall scope every Hc* runs in: from a dead or unknown
  // domain it returns kBadHandle and charges, records and counts nothing;
  // otherwise it wraps `body(domain)` in the hypercall's span and frame,
  // its entry and return charges, its ledger call/reply pair, its counters
  // and its race edge. Accounting stays with the calling domain (see
  // DomainScheduler::EnterHypervisor); mode flips to privileged and back.
  template <typename Body>
  auto Hypercall(ukvm::DomainId dom, HypercallNr nr, Body&& body);

  // The event-channel send both HcEvtchnSend and a multicall sub-op run.
  ukvm::Err EvtchnSend(ukvm::DomainId dom, uint32_t port);

  // The one save/switch/restore: charges `dispatch_cost`, runs `body` in
  // `d`'s kernel context under the given span and frame, and restores the
  // interrupted context. Serves softirq work and both upcalls.
  template <typename Body>
  void RunInDomainKernel(Domain& d, uint32_t span_name, uint32_t frame_id,
                         uint64_t dispatch_cost, Body&& body);

  // Event-channel upcall delivery (virtual interrupt into the target).
  void DeliverUpcall(ukvm::DomainId target, uint32_t port);
  // kDomainDead delivery into a surviving peer.
  void DeliverDomainDead(ukvm::DomainId target, ukvm::DomainId dead);

  hwsim::Machine& machine_;
  DomainScheduler sched_;
  ExceptionVirt exc_;
  PtVirt pt_virt_;
  std::unique_ptr<EventChannelTable> evtchn_;
  std::unique_ptr<GrantTable> gnttab_;

  std::unordered_map<ukvm::DomainId, std::unique_ptr<Domain>> domains_;
  std::unordered_map<ukvm::IrqLine, std::pair<ukvm::DomainId, uint32_t>> irq_bindings_;
  uint32_t next_domain_id_ = 1;  // 0 is the hypervisor itself
  ukvm::DomainId dom0_ = ukvm::DomainId::Invalid();

  uint32_t mech_hypercall_ = 0;
  uint32_t mech_hypercall_ret_ = 0;
  uint32_t mech_virq_ = 0;
  uint32_t mech_upcall_ = 0;

  // E17: per-hypercall span names and profiler frames, interned at
  // construction so the hypercall hot path is allocation-free.
  std::array<uint32_t, kHypercallCount> trace_span_names_{};
  std::array<uint32_t, kHypercallCount> trace_frames_{};
  uint32_t trace_upcall_name_ = 0;
  uint32_t trace_upcall_frame_ = 0;
  uint32_t trace_softirq_name_ = 0;
  uint32_t trace_softirq_frame_ = 0;
  uint32_t trace_virq_frame_ = 0;

  std::array<uint64_t, kHypercallCount> hypercall_counts_{};
  uint64_t total_hypercalls_ = 0;
  uint64_t multicall_subops_ = 0;
  std::vector<std::string> console_log_;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_HYPERVISOR_H_
