// Happens-before race detector for the simulator's shared-memory channels
// (E20).
//
// The split-driver datapath is exactly the surface the paper argues about:
// frontends and backends in separate protection domains sharing descriptor
// rings and grant-mapped payload frames, synchronized only by an explicit
// protocol (write descriptor -> publish ring index -> kick event channel).
// Nothing in PR 2's invariant auditor checks that protocol — a frontend
// reading a slot before the backend's publish, or a payload frame mutated
// with no synchronizing edge in between, is invisible to ownership checks
// because every access is to memory both sides may legally touch.
//
// This detector closes that gap with the standard dynamic-race machinery,
// specialized to the simulator:
//
//  - every domain is an execution context with a vector clock (the
//    simulation interleaves contexts on a deterministic schedule, but the
//    *protocol* must not depend on that schedule — the detector checks the
//    ordering the protocol itself establishes, not the one the scheduler
//    happened to produce);
//  - synchronization edges come from the events the system already models,
//    reported through the machine's observer (hwsim::Observer, whose one
//    implementation, the Auditor, forwards them here): event-channel send
//    -> upcall, IPI send -> shootdown handler -> ack wait, hypercall
//    entry/exit, IPC call/reply crossings (from the auditor's ledger sink),
//    and ring-index publish/observe in stacks/xenring.h. Each edge key maps
//    to a slot clock; Release joins the releaser's clock into the slot and
//    advances the releaser's epoch, Acquire joins the slot back (FastTrack
//    discipline: epochs advance only at release points);
//  - shared accesses (ring descriptor slots, grant-mapped payload frames)
//    go through a shadow-state table keyed (object, offset) recording the
//    last writer's epoch and all readers since. A write/write or read/write
//    pair unordered by the clocks is kUnsyncedSharedAccess; a consumer read
//    of a ring slot index no publish has covered is kRingReadBeforePublish.
//
// The detector is pure observation: it never charges simulated cycles, so
// enabling it cannot perturb any measured result (bench_observer_matrix
// gates this).

#ifndef UKVM_SRC_CHECK_RACE_H_
#define UKVM_SRC_CHECK_RACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/crossings.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"

namespace ucheck {

enum class RaceRule : uint8_t {
  kUnsyncedSharedAccess = 0,  // write/write or read/write with no HB edge
  kRingReadBeforePublish,     // consumer observed a slot index never published
  kRuleCount,
};

inline constexpr size_t kRaceRuleCount = static_cast<size_t>(RaceRule::kRuleCount);

const char* RaceRuleName(RaceRule rule);

struct RaceViolation {
  RaceRule rule = RaceRule::kRuleCount;
  uint64_t time = 0;  // simulated time when detected
  std::string detail;
};

class RaceDetector {
 public:
  struct Stats {
    uint64_t releases = 0;
    uint64_t acquires = 0;
    uint64_t shared_accesses = 0;
    uint64_t ring_publishes = 0;
    uint64_t ring_observes = 0;
    size_t contexts = 0;
    size_t edge_slots = 0;
    size_t shadow_cells = 0;
  };

  // Reads `machine`'s clock for violation timestamps; the events arrive
  // through the methods below (the Auditor forwards the machine's race
  // events and ledger crossings).
  explicit RaceDetector(hwsim::Machine& machine) : machine_(machine) {}

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  // The VMM domain relays every hypercall, so ledger crossings touching it
  // would serialize all guests through one context and mask real races;
  // crossings from/to the hub are ignored (the true edges — evtchn send ->
  // upcall etc. — are reported at their mechanism sites instead).
  void SetHubDomain(ukvm::DomainId hub) { hub_ = hub; }

  // The race half of hwsim::Observer (same contracts).
  void Release(ukvm::DomainId ctx, uint64_t key);
  void Acquire(ukvm::DomainId ctx, uint64_t key);
  void SharedWrite(ukvm::DomainId ctx, uint64_t object, uint64_t offset, const char* what);
  void SharedRead(ukvm::DomainId ctx, uint64_t object, uint64_t offset, const char* what);
  void RingPublish(ukvm::DomainId ctx, uint64_t key, uint64_t count);
  bool RingObserve(ukvm::DomainId ctx, uint64_t key, uint64_t index);
  void ContextDead(ukvm::DomainId ctx);

  // IPC call/reply edge: a ledger crossing between two non-hub domains
  // releases the sender's history to the receiver.
  void OnCrossing(const ukvm::CrossingEvent& event);

  size_t violation_count() const;
  uint64_t RuleCount(RaceRule rule) const {
    return rule_counts_[static_cast<size_t>(rule)];
  }
  // Stored violation records (capped; counts above are exact).
  const std::vector<RaceViolation>& violations() const { return violations_; }
  std::vector<std::string> ViolationReports() const;
  void ClearViolations();

  Stats stats() const;

 private:
  static constexpr size_t kNoCtx = static_cast<size_t>(-1);
  static constexpr size_t kMaxStoredViolations = 256;

  struct ReadRecord {
    uint64_t epoch = 0;
    const char* what = nullptr;
  };
  struct Cell {
    size_t writer = kNoCtx;
    uint64_t write_epoch = 0;
    const char* write_what = nullptr;
    std::unordered_map<size_t, ReadRecord> reads;  // ctx index -> last read
  };

  // Dense context index for a domain, created on first sight; kNoCtx for
  // invalid ids (accesses from no context are not checked).
  size_t CtxOf(ukvm::DomainId ctx);
  // Looks up without creating; kNoCtx if never seen.
  size_t FindCtx(ukvm::DomainId ctx) const;

  uint64_t OwnEpoch(size_t c) const { return clocks_[c][c]; }
  // clock[i] with missing components read as 0.
  static uint64_t At(const std::vector<uint64_t>& clock, size_t i) {
    return i < clock.size() ? clock[i] : 0;
  }
  static void JoinInto(std::vector<uint64_t>& dst, const std::vector<uint64_t>& src);
  // True when accesses by `prev` up to `epoch` happen-before the current
  // point of context `c` (same context, dead context, or clock coverage).
  bool Ordered(size_t c, size_t prev, uint64_t epoch) const;

  void RecordViolation(RaceRule rule, std::string detail);
  std::string DescribeObject(uint64_t object, uint64_t offset) const;
  std::string CtxName(size_t c) const;

  hwsim::Machine& machine_;
  ukvm::DomainId hub_ = ukvm::DomainId::Invalid();

  std::unordered_map<uint32_t, size_t> ctx_index_;  // DomainId value -> dense
  std::vector<uint32_t> ctx_dom_;                   // dense -> DomainId value
  std::vector<std::vector<uint64_t>> clocks_;
  std::vector<bool> dead_;

  std::unordered_map<uint64_t, std::vector<uint64_t>> edges_;  // key -> slot clock
  std::unordered_map<uint64_t, uint64_t> published_;  // ring key -> entries published
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, Cell>> shadow_;

  std::vector<RaceViolation> violations_;
  uint64_t rule_counts_[kRaceRuleCount] = {};
  Stats stats_;
};

}  // namespace ucheck

#endif  // UKVM_SRC_CHECK_RACE_H_
