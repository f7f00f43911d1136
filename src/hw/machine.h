// The simulated machine: N vCPUs, physical memory, an interrupt controller,
// a virtual clock, and a discrete-event queue for devices.
//
// Execution model: software (kernels, guests, applications) runs as real
// C++ invoked through kernel entry points; each architectural operation
// charges cycles to the CPU's current domain, advancing the clock. Device
// activity is scheduled on the event queue at absolute times and is drained
// by the Run*/Wait* family; events never fire re-entrantly inside Charge(),
// which keeps the simulation deterministic and the call stack sane.

#ifndef UKVM_SRC_HW_MACHINE_H_
#define UKVM_SRC_HW_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/crossings.h"
#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/core/metrics.h"
#include "src/core/reqtrace.h"
#include "src/core/trace.h"
#include "src/hw/cpu.h"
#include "src/hw/interrupts.h"
#include "src/hw/memory.h"
#include "src/hw/observer.h"
#include "src/hw/platform.h"
#include "src/hw/trap.h"

namespace hwsim {

// Accounting domain used while the CPU waits for devices with nothing to run.
inline constexpr ukvm::DomainId kIdleDomain{0xfffffffdu};

// Simulated cycles per microsecond (a ~2 GHz core); used to convert device
// latencies and experiment durations.
inline constexpr uint64_t kCyclesPerUs = 2000;

class Machine {
 public:
  Machine(Platform platform, uint64_t memory_bytes, uint32_t num_vcpus = 1);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const Platform& platform() const { return platform_; }
  const CostModel& costs() const { return platform_.costs; }
  PhysicalMemory& memory() { return memory_; }
  InterruptController& irq_controller() { return irq_controller_; }
  IpiController& ipis() { return ipis_; }
  // The vCPU software is currently running on. Single-vCPU machines (the
  // default) behave exactly as before: one CPU, never switched.
  Cpu& cpu() { return *cpus_[current_vcpu_]; }
  const Cpu& cpu() const { return *cpus_[current_vcpu_]; }
  Cpu& cpu(uint32_t vcpu) { return *cpus_[vcpu]; }
  const Cpu& cpu(uint32_t vcpu) const { return *cpus_[vcpu]; }
  uint32_t num_vcpus() const { return static_cast<uint32_t>(cpus_.size()); }
  uint32_t current_vcpu() const { return current_vcpu_; }
  ukvm::CrossingLedger& ledger() { return ledger_; }
  ukvm::CpuAccounting& accounting() { return accounting_; }
  ukvm::Counters& counters() { return counters_; }
  ukvm::Tracer& tracer() { return tracer_; }
  const ukvm::Tracer& tracer() const { return tracer_; }
  ukvm::RequestTrace& reqtrace() { return reqtrace_; }
  const ukvm::RequestTrace& reqtrace() const { return reqtrace_; }

  // Moves execution to another vCPU (bookkeeping only — the cost of getting
  // there, if any, is the caller's to model). Returns the previous index.
  // Pending shootdown IPIs latched at the destination are delivered first,
  // as a real core drains its IPI queue when it next opens interrupts.
  uint32_t SwitchVcpu(uint32_t vcpu);
  // Round-robin step to the next vCPU; returns the new index.
  uint32_t NextVcpu() {
    SwitchVcpu((current_vcpu_ + 1) % num_vcpus());
    return current_vcpu_;
  }

  // --- Tracing (E17) --------------------------------------------------------

  // Arms the flight recorder, latency histograms, and cycle profiler:
  // subscribes to the ledger's trace stream and CPU accounting
  // (instrumented code calls tracer() directly). Observation never charges
  // simulated cycles, so enabling this leaves every sim-cycle number
  // byte-identical (bench_observer_matrix).
  void EnableTracing(const ukvm::TraceConfig& config);

  // --- Request tracing (E22) ------------------------------------------------

  // Arms the causal request tracer: subscribes to the ledger's trace stream
  // and makes ChargeCopy / shootdown waits / the event loop feed per-request
  // DAGs. Same contract as EnableTracing: observation only, zero charges,
  // sim results byte-identical on or off (bench_observer_matrix).
  void EnableRequestTracing(const ukvm::ReqTraceConfig& config);

  // Post-mortem bundle: on the first auditor violation or watchdog trip the
  // failure edge calls this to dump the flight-recorder ring, histogram
  // snapshots, and the K slowest request DAGs into $UKVM_TRACE_DIR (no-op
  // without the variable; at most one dump per machine).
  void PostMortemDump(const char* reason);

  // --- Clock and cycle charging -------------------------------------------

  uint64_t Now() const { return now_; }

  // Charges `cycles` to the CPU's current domain and advances the clock.
  void Charge(uint64_t cycles);

  // Charges to an explicit domain (e.g. kernel work on behalf of a domain)
  // and advances the clock.
  void ChargeTo(ukvm::DomainId domain, uint64_t cycles);

  // Attributes cycles without advancing the clock — for work that proceeds
  // concurrently with the CPU, such as device DMA or a remote vCPU's
  // shootdown handler.
  void AccountOnly(ukvm::DomainId domain, uint64_t cycles);

  // Charges the CPU cost of copying `bytes` (and, with request tracing
  // armed, attaches the copy interval to the ambient request).
  void ChargeCopy(uint64_t bytes);

  // --- Event queue ---------------------------------------------------------

  using EventId = uint64_t;
  EventId ScheduleAt(uint64_t time, std::function<void()> fn);
  EventId ScheduleAfter(uint64_t delay, std::function<void()> fn);
  void CancelEvent(EventId id);
  bool HasPendingEvents() const;

  // Runs the next due event, advancing the clock to its time (idle cycles
  // are attributed to kIdleDomain). False if the queue is empty.
  bool RunNextEvent();

  // Drains events until the queue is empty or `max_events` have run.
  void RunUntilIdle(uint64_t max_events = 1'000'000);

  // Processes events until the clock reaches Now()+cycles; idle gaps are
  // skipped (and attributed to kIdleDomain). Pending interrupts are
  // delivered between events if the CPU has them enabled.
  void RunFor(uint64_t cycles);

  // Advances events until `pred()` is true; kTimedOut after `timeout_cycles`.
  ukvm::Err WaitUntil(const std::function<bool()>& pred, uint64_t timeout_cycles);

  // --- TLB shootdown (E18) --------------------------------------------------
  //
  // Multi-vCPU TLB coherence: when a mapping is revoked (or a whole space
  // dies), every other vCPU may hold stale entries, so the initiator sends
  // IPIs and spins until all targets flushed and acked. With one vCPU the
  // protocol charges nothing at all, keeping single-vCPU experiments
  // byte-identical; the caller's existing local flush charges still apply.

  struct ShootdownStats {
    uint64_t requests = 0;
    uint64_t full_flushes = 0;     // whole-space (death) requests
    uint64_t pages_requested = 0;  // page-granular vpns across all requests
    uint64_t ipis_sent = 0;
    uint64_t remote_acks = 0;
  };

  // Starts a shootdown round for `vpns` of `space` (empty span = flush the
  // space's every entry): invalidates locally, posts kTlbShootdown IPIs to
  // every other vCPU and charges the APIC sends to the current domain.
  // Returns a request id for WaitTlbShootdown. `space` is captured by salt
  // and pointer identity only — never dereferenced after this call — so
  // requests stay valid across the space's destruction.
  uint64_t BeginTlbShootdown(const PageTable* space, std::span<const Vaddr> vpns,
                             bool space_dying);

  // Delivers any pending shootdown IPIs at `vcpu`: flushes the requested
  // entries from its TLB, attributes the handler cost to whatever that vCPU
  // is running (concurrently — the clock does not advance) and acks.
  void DeliverShootdownIpis(uint32_t vcpu);

  // Initiator side: delivers outstanding IPIs for `id` on their targets and
  // charges the spin-wait (the slowest target's handler cost) to the
  // current domain. No-op for unknown/already-completed ids.
  void WaitTlbShootdown(uint64_t id);

  bool ShootdownComplete(uint64_t id) const;

  // Begin + Wait. The common synchronous case.
  uint64_t TlbShootdown(const PageTable* space, std::span<const Vaddr> vpns,
                        bool space_dying = false);

  // Full address-space death: records the space in the dead-space registry
  // (the auditor flags any TLB entry still attributable to it), runs a
  // whole-space shootdown round, and releases the space's salt id to the
  // recycling quarantine once every vCPU acked. Idempotent per space.
  void ShootdownSpaceDeath(const PageTable* space);

  // Dead-space registry: spaces whose death shootdown ran. Pointers are
  // identity only — the PageTable object may be long gone.
  struct DeadSpace {
    const PageTable* space;
    uint64_t salt;
    uint64_t instance;  // PageTable::instance_id(): survives pointer AND salt reuse
    bool flush_acked;
  };
  const std::vector<DeadSpace>& dead_spaces() const { return dead_spaces_; }
  const DeadSpace* FindDeadSpaceBySalt(uint64_t salt) const;
  bool IsDeadSpace(const PageTable* space) const;

  // In-flight (not fully acked) shootdown requests, for the auditor.
  size_t unacked_shootdowns() const;
  void ForEachUnackedShootdown(
      const std::function<void(uint64_t id, uint32_t initiator, uint32_t outstanding)>& fn) const;

  const ShootdownStats& shootdown_stats() const { return shootdown_stats_; }

  // --- Traps and interrupts ------------------------------------------------

  void SetTrapHandler(TrapHandler* handler) { trap_handler_ = handler; }
  TrapHandler* trap_handler() const { return trap_handler_; }

  // Raises a synchronous trap: charges the entry cost, invokes the handler
  // (which may mutate the frame), charges the return cost.
  void RaiseTrap(TrapFrame& frame);

  // Delivers all pending unmasked interrupts through the trap handler if
  // the CPU has interrupts enabled. Kernels call this at safe points.
  void DeliverPendingInterrupts();

  // --- Observation ---------------------------------------------------------

  // The machine's one observer slot (src/hw/observer.h), filled by the
  // invariant auditor (src/check); nullptr empties it. `race_edges` also
  // routes the race-detection events to it (E20). Observation only — with
  // or without an observer, charges are identical.
  void SetObserver(Observer* observer, bool race_edges) {
    observer_ = observer;
    race_edges_ = race_edges;
  }
  Observer* observer() const { return observer_; }
  // The observer when it takes race edges, else null: race call sites test
  // this before computing keys, so audit-only runs skip that work.
  Observer* race_observer() const { return race_edges_ ? observer_ : nullptr; }

  // Called by device models for each page a DMA transfer touches.
  void NotifyDmaTarget(Paddr target, bool to_memory);

  // Deterministic per-machine identity for shared objects (descriptor
  // rings) named in race-detector keys.
  uint64_t AllocRaceObjectId() { return next_race_object_id_++; }

 private:
  struct Event {
    uint64_t time;
    EventId id;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  struct ShootdownRequest {
    const PageTable* space;  // identity only, never dereferenced
    uint64_t salt;
    std::vector<Vaddr> vpns;  // empty = whole-space flush
    bool space_dying;
    uint32_t initiator;
    std::vector<bool> pending;  // per vCPU
    uint32_t outstanding = 0;
    uint64_t max_target_cost = 0;
  };

  void AdvanceClockTo(uint64_t time);
  // Pops cancelled events off the head of the queue, so its top (if any)
  // is the next event that will run.
  void DropCancelledEvents();

  Platform platform_;
  PhysicalMemory memory_;
  // Before irq_controller_, which records its instants here.
  ukvm::Tracer tracer_;
  InterruptController irq_controller_;
  IpiController ipis_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  uint32_t current_vcpu_ = 0;
  ukvm::CrossingLedger ledger_;
  ukvm::CpuAccounting accounting_;
  std::unordered_map<uint64_t, ShootdownRequest> shootdowns_;
  uint64_t next_shootdown_id_ = 1;
  std::vector<DeadSpace> dead_spaces_;
  ShootdownStats shootdown_stats_;
  ukvm::Counters counters_;
  bool tracing_subscribed_ = false;
  ukvm::RequestTrace reqtrace_;
  bool reqtrace_subscribed_ = false;
  bool postmortem_dumped_ = false;
  uint32_t trace_idle_frame_ = 0;
  TrapHandler* trap_handler_ = nullptr;
  Observer* observer_ = nullptr;
  bool race_edges_ = false;
  uint64_t next_race_object_id_ = 1;

  uint64_t now_ = 0;
  EventId next_event_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::unordered_set<EventId> cancelled_;
  bool in_interrupt_delivery_ = false;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_MACHINE_H_
