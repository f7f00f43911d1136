// The machine's observation interface: one slot per hwsim::Machine.
//
// Two families of events flow through it. The isolation-audit events are
// the machine-state changes the invariant auditor (src/check) checks as
// they happen: TLB fills, PTE map/unmap, paravirtual PT-update batches,
// delegation-record mutations (grant table, mapping database) and device
// DMA. The race events are the simulator's synchronization vocabulary —
// event channels, shootdown IPIs, hypercall entry/exit, the publish/observe
// protocol on shared-memory descriptor rings — plus the accesses to shared
// frames and ring slots, over which the happens-before detector (E20) runs
// vector clocks.
//
// Everything is pure observation: implementations must never charge
// simulated cycles, so a machine behaves byte-identically with or without
// an observer installed (bench_observer_matrix proves it for every
// observer at once). The crossing stream (CrossingLedger::AddTraceSink)
// and the charge stream (CpuAccounting::SetObserver) stay separate: they
// are core-level and also feed the tracers.

#ifndef UKVM_SRC_HW_OBSERVER_H_
#define UKVM_SRC_HW_OBSERVER_H_

#include <cstdint>

#include "src/core/ids.h"
#include "src/hw/memory.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"

namespace hwsim {

// Namespaces for the 64-bit edge keys: a synchronization slot is identified
// by (kind, a, b), so e.g. an event channel's slot can never collide with a
// shootdown round's even if their numeric ids coincide.
enum class RaceEdgeKind : uint8_t {
  kEvtchn = 1,   // a = target domain, b = target port
  kIpi,          // a = shootdown request id (send -> handler)
  kIpiAck,       // a = shootdown request id (handler -> initiator wait)
  kHypercall,    // a = calling domain (degenerate self-edge, stats only)
  kIpc,          // a = from domain, b = to domain (ledger crossings)
  kRingReq,      // a = ring object id (request-side publish/observe)
  kRingResp,     // a = ring object id (response-side publish/observe)
  kFrame,        // a = physical frame, b = owner domain (shadow objects)
};

// Packs (kind, a, b) into one key: 8 bits of kind, 28 bits each of a and b.
constexpr uint64_t RaceEdgeKey(RaceEdgeKind kind, uint64_t a, uint64_t b = 0) {
  return (static_cast<uint64_t>(kind) << 56) | ((a & 0xFFF'FFFFull) << 28) |
         (b & 0xFFF'FFFFull);
}

// One device DMA touching physical memory: the frame under the target
// address, whether the device writes memory (rx/read) or reads it
// (tx/write), and the domain that was running when the transfer was
// submitted.
struct DmaAccess {
  Frame frame = 0;
  bool to_memory = false;
  ukvm::DomainId initiator;
};

class Observer {
 public:
  virtual ~Observer() = default;

  // --- Isolation audit ---------------------------------------------------------

  // The MMU filled a TLB entry (the entry as stored, salted key included).
  virtual void TlbInsert(const TlbEntry& entry) = 0;

  // A PTE of `space` changed: for kMap `pte` is the entry as installed, for
  // kUnmap the entry that was just removed. Only tables built for this
  // machine report (PageTable(Machine&)).
  virtual void PteChanged(const PageTable& space, PteOp op, Vaddr vpn, const Pte& pte) = 0;

  // A paravirtual PT-update batch for `domain` finished applying to `space`.
  virtual void PtBatchApplied(ukvm::DomainId domain, const PageTable& space) = 0;

  // A delegation record changed: a grant-table entry or a mapping-database
  // node was added, moved or removed.
  virtual void DelegationChanged() = 0;

  // A device DMA touches `access.frame` (reported at submit time).
  virtual void DmaTarget(const DmaAccess& access) = 0;

  // --- Race detection (E20) -------------------------------------------------------
  //
  // Reported only through Machine::race_observer(), which is null unless
  // the observer asked for race edges — call sites skip their key work then.

  // Release/acquire halves of a synchronization edge: the releasing
  // context's history becomes visible to every context that later acquires
  // the same key. An acquire of a never-released key is a no-op.
  virtual void Release(ukvm::DomainId ctx, uint64_t key) = 0;
  virtual void Acquire(ukvm::DomainId ctx, uint64_t key) = 0;

  // One access to shared state. `object`/`offset` name the cell (a ring
  // side + slot index, or a frame keyed by RaceEdgeKind::kFrame); `what`
  // labels the access site in violation reports.
  virtual void SharedWrite(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                           const char* what) = 0;
  virtual void SharedRead(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                          const char* what) = 0;

  // Ring-index publish discipline: the producer publishes after writing
  // descriptors (count = total entries ever published on this side); the
  // consumer observes before reading slot `index`. Publish doubles as a
  // release of `key`, a successful observe as an acquire. Returns false if
  // `index` is not covered by any publish — the caller must then skip its
  // SharedRead of the slot, so one protocol bug fires exactly one rule.
  virtual void RingPublish(ukvm::DomainId ctx, uint64_t key, uint64_t count) = 0;
  virtual bool RingObserve(ukvm::DomainId ctx, uint64_t key, uint64_t index) = 0;

  // `ctx` was destroyed and its shared mappings force-revoked; the
  // revocation orders the dead context's accesses before everything later,
  // so they can no longer race.
  virtual void ContextDead(ukvm::DomainId ctx) = 0;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_OBSERVER_H_
