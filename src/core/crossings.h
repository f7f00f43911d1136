// The crossing ledger: the project's central measurement construct.
//
// Heiser et al.'s argument against Hand et al. is structural: a Xen-style
// VMM performs "essentially the same number of IPC operations" as an
// L4-style microkernel for the same workload, it merely spells them
// differently (event channels, page flips, trap-and-reflect). To test that
// claim both kernels in this project report every protection-domain crossing
// to a shared ledger, using a shared taxonomy, so crossing counts and costs
// can be compared apples-to-apples (experiments E1-E4).

#ifndef UKVM_SRC_CORE_CROSSINGS_H_
#define UKVM_SRC_CORE_CROSSINGS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/ids.h"

namespace ukvm {

// Taxonomy of protection-domain crossings. Section 2.2 of the paper lists
// the three orthogonal roles of microkernel IPC (control transfer, data
// transfer, resource delegation); traps and interrupts are the
// hardware-initiated flavours that VMMs additionally distinguish.
enum class CrossingKind : uint8_t {
  kSyncCall = 0,       // kernel-mediated synchronous control transfer (IPC call, hypercall)
  kSyncReply,          // the matching return transfer
  kAsyncNotify,        // asynchronous notification (event channel, virtual IRQ, async IPC)
  kDataTransfer,       // bulk data movement across domains (string IPC, grant copy)
  kResourceDelegate,   // resource delegation (map/grant/unmap, grant transfer, page flip)
  kTrap,               // exception/syscall entry into a more privileged domain
  kTrapReturn,         // return from trap to the less privileged domain
  kInterrupt,          // hardware interrupt delivery into a domain
  kKindCount,          // sentinel
};

inline constexpr size_t kCrossingKindCount = static_cast<size_t>(CrossingKind::kKindCount);

// Stable display name for a crossing kind.
const char* CrossingKindName(CrossingKind kind);

// Aggregated statistics for one named mechanism (e.g. "l4.ipc.call",
// "xen.evtchn.send", "xen.gnttab.transfer").
struct MechanismStats {
  std::string name;
  CrossingKind kind = CrossingKind::kKindCount;
  uint64_t count = 0;
  uint64_t cycles = 0;
  uint64_t bytes = 0;
};

// Point-in-time totals, used by experiments to measure deltas around a
// workload phase.
struct CrossingSnapshot {
  std::array<uint64_t, kCrossingKindCount> kind_counts{};
  std::vector<MechanismStats> mechanisms;
  uint64_t total_count = 0;
  uint64_t total_cycles = 0;

  // Crossings that the paper counts as "IPC operations": everything except
  // hardware interrupt delivery.
  uint64_t IpcLikeCount() const;
};

// Computes `after - before` field-wise (mechanisms matched by name).
CrossingSnapshot DiffSnapshots(const CrossingSnapshot& before, const CrossingSnapshot& after);

// One crossing as it happened, for stream consumers (the ledger linter in
// src/check). Only produced while a trace sink is installed; the aggregate
// counters above are always maintained.
struct CrossingEvent {
  uint32_t mechanism = 0;
  CrossingKind kind = CrossingKind::kKindCount;
  DomainId from;
  DomainId to;
  uint64_t cycles = 0;
  uint64_t bytes = 0;
  uint64_t seq = 0;   // ordinal of this event since the ledger was created
  uint64_t time = 0;  // simulated time at the record call (0 without a clock)
};

// Records crossings. One ledger per simulated machine; not thread-safe (the
// simulation is single-threaded and deterministic).
class CrossingLedger {
 public:
  // Interns a mechanism name, returning a dense id for cheap recording on
  // hot paths. Repeated calls with the same name return the same id. The
  // kind given at interning time classifies all events of this mechanism.
  uint32_t InternMechanism(std::string_view name, CrossingKind kind);

  // Records one crossing event of `mechanism` (an id from InternMechanism)
  // from domain `from` to domain `to`, costing `cycles` and moving `bytes`.
  void Record(uint32_t mechanism, DomainId from, DomainId to, uint64_t cycles, uint64_t bytes);

  uint64_t CountByKind(CrossingKind kind) const;
  uint64_t total_count() const { return total_count_; }
  uint64_t total_cycles() const { return total_cycles_; }

  // Count/cycles for one mechanism by name; zero if never interned.
  MechanismStats StatsFor(std::string_view name) const;

  CrossingSnapshot Snapshot() const;

  // --- Trace stream (feeds the crossing-discipline linter and the flight
  // --- recorder) --------------------------------------------------------------

  // Adds a per-event observer and returns a handle for RemoveTraceSink.
  // Any number of sinks may be live at once (the ukvm-check linter and the
  // E17 flight recorder both observe the same stream); events fan out to
  // all of them in installation order.
  uint32_t AddTraceSink(std::function<void(const CrossingEvent&)> sink);
  void RemoveTraceSink(uint32_t handle);
  bool tracing() const { return !sinks_.empty(); }

  // Clock for event timestamps; the owning Machine installs its simulated
  // clock here. Without one, event times are 0.
  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }

  // Mechanism table introspection (ids are dense, [0, mechanism_count)).
  size_t mechanism_count() const { return slots_.size(); }
  const std::string& MechanismName(uint32_t id) const { return slots_.at(id).name; }
  CrossingKind MechanismKind(uint32_t id) const { return slots_.at(id).kind; }

  uint64_t events_recorded() const { return events_recorded_; }

 private:
  struct MechanismSlot {
    std::string name;
    CrossingKind kind = CrossingKind::kKindCount;
    uint64_t count = 0;
    uint64_t cycles = 0;
    uint64_t bytes = 0;
  };

  std::vector<MechanismSlot> slots_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::array<uint64_t, kCrossingKindCount> kind_counts_{};
  uint64_t total_count_ = 0;
  uint64_t total_cycles_ = 0;
  uint64_t events_recorded_ = 0;
  std::vector<std::pair<uint32_t, std::function<void(const CrossingEvent&)>>> sinks_;
  uint32_t next_sink_id_ = 1;
  std::function<uint64_t()> now_;
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_CROSSINGS_H_
