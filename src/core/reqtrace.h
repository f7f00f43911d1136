// The E22 causal request tracer: per-request DAGs with critical-path and
// tail-latency attribution.
//
// E17's instruments aggregate: per-mechanism latency histograms say that
// *some* crossing was slow, never *which request* it made slow. This layer
// follows one request end-to-end across every handoff the simulator models —
// ring descriptor slots (a shadow side-table keyed by absolute prod/cons
// index, the E20 race-detector trick), event-channel send→upcall pairs,
// ledger crossings, multicall sub-ops, TLB-shootdown waits, and E19 recovery
// replay — and records a causal DAG of (node, parent, cycle-interval) per
// request. On completion it computes the critical path, buckets it into
// queueing / crossing / copy / device / shootdown-wait / recovery-phase
// time, feeds `req.e2e` / `req.critpath.*` histograms, and retains the K
// slowest requests' full DAGs so tail outliers can be linked to their cause.
//
// Discipline (same contract as the E17 tracer and E20 race detector): no
// method here ever charges simulated cycles, so a run with request tracing
// on is cycle-for-cycle identical to the same run with it off; everything
// recorded derives from simulated time and interned ids, so two runs of the
// same config export byte-identical dumps.
//
// Completeness lint: every completed request's DAG must be rooted and
// connected. Two failure shapes are detected:
//   - orphaned handoff: a ring slot is consumed inside the stashed window
//     but no id was stashed for it (a propagation point was skipped);
//   - unparented request: a request completes while handoffs it stashed
//     (ring slots, event-channel sends) were never adopted by the far side.
// Crash recovery legitimately severs handoffs mid-flight; the recovery path
// calls ForgiveHandoffs / RingDropped so journaled requests replayed after a
// reconnect still lint clean.

#ifndef UKVM_SRC_CORE_REQTRACE_H_
#define UKVM_SRC_CORE_REQTRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/ids.h"

namespace ukvm {

struct CrossingEvent;
class CrossingLedger;

// Per-stack request-tracing knobs. Default-off: stacks built with an
// all-default Config run with zero instrumentation active.
struct ReqTraceConfig {
  bool enabled = false;
  // How many of the slowest completed requests keep their full DAG.
  size_t k_slowest = 8;
};

// What a DAG node's interval was spent on. Doubles as the critical-path
// breakdown bucket (origin-only time counts as queueing: the request
// existed but nothing specific was happening to it).
enum class ReqNodeKind : uint8_t {
  kOrigin = 0,  // the request's root span (birth to completion)
  kQueue,       // waiting in a ring slot between stash and consume
  kCrossing,    // one ledger crossing (hypercall, IPC, trap, upcall)
  kCopy,        // bulk data movement (ChargeCopy)
  kDevice,      // simulated device service time (NIC send, disk I/O)
  kShootdown,   // TLB-shootdown wait
  kRecovery,    // E19 recovery phase (detect / reconnect / replay)
  kCompute,     // everything else explicitly attributed
  kKindCount,   // sentinel
};

inline constexpr size_t kReqNodeKindCount = static_cast<size_t>(ReqNodeKind::kKindCount);

// Stable display name ("origin", "queue", ...).
const char* ReqNodeKindName(ReqNodeKind kind);

// Handle to one node of one live request. trace == 0 means "no request"
// (tracing disabled, or the handoff's id was lost); every API here accepts
// invalid refs as cheap no-ops.
struct ReqTraceRef {
  uint32_t trace = 0;
  uint32_t node = 0;
  constexpr bool valid() const { return trace != 0; }
};

inline constexpr uint32_t kReqNoParent = 0xffffffffu;
// t1 of a node that is still open; closed at EndRequest time.
inline constexpr uint64_t kReqOpen = ~0ull;

struct ReqNode {
  uint32_t name = 0;  // interned via RequestTrace::InternName
  ReqNodeKind kind = ReqNodeKind::kCompute;
  DomainId domain;        // where the interval was spent
  uint64_t t0 = 0;        // simulated cycles
  uint64_t t1 = kReqOpen; // kReqOpen while the node is live
  uint32_t parent = kReqNoParent;
};

// One stretch of a completed request's critical path: during [t0, t1) the
// deepest active DAG node was `node`.
struct ReqSegment {
  uint32_t node = 0;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

// A completed request retained in the flight recorder (one of the K
// slowest seen so far).
struct CompletedRequest {
  uint32_t id = 0;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  std::vector<ReqNode> nodes;          // node 0 is the root
  std::vector<ReqSegment> critical_path;
  // Critical-path cycles per bucket. Origin-only time is bucketed as
  // kQueue, so the kOrigin slot is always 0.
  std::array<uint64_t, kReqNodeKindCount> breakdown{};
  bool parented = true;  // all stashed handoffs were adopted
};

// Completeness verdict, cheap to recompute at any time.
struct ReqTraceLint {
  uint64_t completed = 0;
  uint64_t fully_parented = 0;
  uint64_t orphaned_handoffs = 0;
  uint64_t abandoned = 0;
  uint64_t open = 0;          // still-live requests at lint time
  uint64_t dropped_nodes = 0; // leaves discarded by the per-request cap

  double parented_fraction() const {
    return completed == 0 ? 1.0
                          : static_cast<double>(fully_parented) / static_cast<double>(completed);
  }
  bool clean() const {
    return orphaned_handoffs == 0 && completed == fully_parented && dropped_nodes == 0;
  }
};

// Which side of a ring a stashed slot id belongs to.
enum class RingSide : uint8_t { kRequest = 0, kResponse = 1 };

class RequestTrace {
 public:
  RequestTrace();

  // Arms the tracer; clears previously recorded requests. Interned names
  // survive (instrumentation sites cache ids at construction time).
  void Enable(const ReqTraceConfig& config);
  bool enabled() const { return enabled_; }

  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }

  // Interns a node name. Id 0 is reserved (the empty name), so call sites
  // can use 0 as a "not yet interned" sentinel.
  uint32_t InternName(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_.at(id); }

  // --- Request lifecycle ------------------------------------------------------

  // Mints a new request rooted at `name` in `domain`, starting now. Returns
  // an invalid ref while disabled.
  ReqTraceRef BeginRequest(uint32_t name, DomainId domain);
  // Completes the request: closes open nodes, computes the critical path
  // and breakdown, feeds the histograms, and retains it if slow enough.
  void EndRequest(ReqTraceRef ref);
  // Drops a request that will never complete (packet lost on a crashed
  // backend). Not a lint failure.
  void AbandonRequest(ReqTraceRef ref);

  // --- Ambient request context ------------------------------------------------
  //
  // The currently-executing request, used by instrumentation that has no
  // explicit ref in hand (the ledger sink, ChargeCopy). The machine's event
  // loop clears it around every event callback so causality never leaks
  // across scheduling boundaries; ReqOriginScope / ReqAdoptScope set it.

  ReqTraceRef current() const { return current_; }
  ReqTraceRef SwapCurrent(ReqTraceRef ref) {
    const ReqTraceRef prev = current_;
    current_ = ref;
    return prev;
  }

  // --- Leaves -----------------------------------------------------------------

  // Attaches a closed interval under the ambient request; no-op without one.
  ReqTraceRef AddLeaf(uint32_t name, ReqNodeKind kind, DomainId domain, uint64_t t0,
                      uint64_t t1);
  // Same, under an explicit parent.
  ReqTraceRef AddLeafTo(ReqTraceRef parent, uint32_t name, ReqNodeKind kind, DomainId domain,
                        uint64_t t0, uint64_t t1);
  // Attaches the same interval to every (distinct, valid) request in
  // `refs` — a multicall flush serves a whole batch at once.
  void AttachSharedSpan(const std::vector<ReqTraceRef>& refs, uint32_t name, ReqNodeKind kind,
                        DomainId domain, uint64_t t0, uint64_t t1);
  // Convenience leaves for the machine's own hooks.
  void CopyLeaf(DomainId domain, uint64_t t0, uint64_t t1, uint64_t bytes);
  void ShootdownLeaf(DomainId domain, uint64_t t0, uint64_t t1);

  // --- Ring shadow side-table -------------------------------------------------
  //
  // Rings carry slot payloads, not trace ids; the id rides in a shadow
  // side-table keyed by (ring, side, absolute index) — the same trick the
  // E20 race detector uses for its happens-before slot clocks. Every push
  // while enabled stashes (an invalid ambient stashes the "no request"
  // id), so the stashed window is dense and a missing entry inside it is a
  // dropped propagation point, not pre-arming traffic.

  // Stashes the ambient request for the slot pushed at `index`.
  void RingStash(uint64_t ring, RingSide side, uint64_t index);
  // Stashes an explicit ref (batched pushes carry per-slot refs).
  void RingStashRef(uint64_t ring, RingSide side, uint64_t index, ReqTraceRef ref);
  // Consumes the stash for the slot popped at `index`: appends a queue node
  // ("spent [stash, now] waiting in the ring") to the stashed request and
  // returns it. Returns an invalid ref (and counts an orphan if the slot is
  // inside the stashed window) when no id was stashed.
  ReqTraceRef RingConsume(uint64_t ring, RingSide side, uint64_t index, DomainId domain);
  // The ring died (E19 backend crash tears the channel down): outstanding
  // stashes are benign, not orphans — un-counts them and drops the table.
  void RingDropped(uint64_t ring);

  // --- Event-channel latch ----------------------------------------------------
  //
  // One stash per (domain, port): a Send latches the sender's request until
  // the upcall delivers. A coalesced Send (pending was already set) keeps
  // the existing stash — the first sender owns the edge.

  void ChannelStash(DomainId target, uint32_t port, bool coalesced);
  // Consumes the stash at upcall delivery: appends a "evtchn.upcall"
  // crossing node [send, now] to the sender's request and returns it.
  ReqTraceRef ChannelAdopt(DomainId target, uint32_t port, DomainId domain);

  // --- Recovery support -------------------------------------------------------

  // A crash severed this request's in-flight handoffs; the journal will
  // replay it. Clears its outstanding-handoff debt so the replayed request
  // still lints as fully parented.
  void ForgiveHandoffs(ReqTraceRef ref);

  // --- Ledger sink ------------------------------------------------------------

  // CrossingLedger trace-sink: attaches every crossing charged while a
  // request is ambient as a kCrossing leaf [time - cycles, time].
  void OnCrossing(const CrossingEvent& event, const CrossingLedger& ledger);

  // --- Results ----------------------------------------------------------------

  const LogHistogram& e2e() const { return e2e_; }
  const LogHistogram& critpath(ReqNodeKind kind) const {
    return critpath_.at(static_cast<size_t>(kind));
  }
  // Name-sorted walk over req.e2e + non-empty req.critpath.* — export order.
  void ForEachHistogram(
      const std::function<void(const std::string&, const LogHistogram&)>& fn) const;

  // The K slowest completed requests, slowest first (ties broken by id).
  const std::vector<CompletedRequest>& slowest() const { return slowest_; }

  ReqTraceLint Lint() const;

  // Human-readable report of the retained slowest requests: e2e, breakdown,
  // and the named critical-path segments. Deterministic; the E22 bench gate
  // greps it for recovery phases and the post-mortem bundle embeds it.
  std::string SlowestReport() const;

  uint64_t requests_started() const { return started_; }
  uint64_t requests_completed() const { return completed_; }
  uint64_t requests_abandoned() const { return abandoned_; }
  uint64_t orphaned_handoffs() const { return orphaned_handoffs_; }

  // --- Mutation hooks (trace-completeness self-tests) -------------------------

  // Drops the next ring-slot stash: the consumer then finds a hole inside
  // the stashed window and flags an orphaned handoff.
  void TestDropNextRingStash() { drop_next_ring_stash_ = true; }
  // Drops the next upcall adoption: the sender's request then completes
  // with an unadopted handoff and lints as unparented.
  void TestDropNextChannelAdopt() { drop_next_channel_adopt_ = true; }

 private:
  struct LiveRequest {
    std::vector<ReqNode> nodes;
    uint32_t pending_handoffs = 0;  // stashed but not yet adopted
    uint64_t dropped_nodes = 0;
    bool damaged = false;  // a handoff provably went missing
  };

  struct Stash {
    uint32_t trace = 0;
    uint32_t node = 0;
    uint64_t t0 = 0;
  };

  struct RingTable {
    // Absolute index of the first slot stashed after arming; consumes below
    // it predate the tracer and are benign.
    std::array<uint64_t, 2> first{{kReqOpen, kReqOpen}};
    std::unordered_map<uint64_t, Stash> slots[2];
  };

  uint64_t Now() const { return now_ ? now_() : 0; }
  LiveRequest* Find(ReqTraceRef ref);
  uint32_t Append(LiveRequest& req, ReqNode node);
  void UnstashLive(const Stash& stash);
  void Finish(uint32_t id, LiveRequest&& req, uint64_t end);

  bool enabled_ = false;
  ReqTraceConfig config_;
  std::function<uint64_t()> now_;

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;

  uint32_t next_trace_id_ = 1;
  std::unordered_map<uint32_t, LiveRequest> live_;
  ReqTraceRef current_;

  std::unordered_map<uint64_t, RingTable> rings_;
  std::unordered_map<uint64_t, Stash> channels_;       // (dom << 32) | port
  std::unordered_set<uint64_t> channels_seen_;

  LogHistogram e2e_;
  std::array<LogHistogram, kReqNodeKindCount> critpath_;
  std::vector<CompletedRequest> slowest_;

  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  uint64_t fully_parented_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t orphaned_handoffs_ = 0;
  uint64_t dropped_nodes_ = 0;

  bool drop_next_ring_stash_ = false;
  bool drop_next_channel_adopt_ = false;

  // Cached interned names for the built-in leaves.
  uint32_t name_ring_wait_ = 0;
  uint32_t name_upcall_ = 0;
  uint32_t name_copy_ = 0;
  uint32_t name_shootdown_ = 0;
  // Per-ledger-mechanism name cache ("xing.<mechanism>"), indexed by
  // mechanism id; 0 = not yet cached.
  std::vector<uint32_t> mech_name_ids_;
};

// RAII origin: mints a request, makes it ambient for the scope, and
// restores the previous ambient at exit. The request itself stays live —
// completion is a separate, possibly far-away EndRequest.
class ReqOriginScope {
 public:
  ReqOriginScope(RequestTrace& rt, uint32_t name, DomainId domain) : rt_(rt) {
    ref_ = rt_.BeginRequest(name, domain);
    prev_ = rt_.SwapCurrent(ref_);
  }
  ~ReqOriginScope() { rt_.SwapCurrent(prev_); }
  ReqOriginScope(const ReqOriginScope&) = delete;
  ReqOriginScope& operator=(const ReqOriginScope&) = delete;

  ReqTraceRef ref() const { return ref_; }

 private:
  RequestTrace& rt_;
  ReqTraceRef ref_;
  ReqTraceRef prev_;
};

// RAII adoption: makes an already-minted request (from a ring or channel
// stash) ambient for the scope. An invalid ref clears the ambient — work on
// an untraced request must not attach to whoever ran last.
class ReqAdoptScope {
 public:
  ReqAdoptScope(RequestTrace& rt, ReqTraceRef ref) : rt_(rt), prev_(rt.SwapCurrent(ref)) {}
  ~ReqAdoptScope() { rt_.SwapCurrent(prev_); }
  ReqAdoptScope(const ReqAdoptScope&) = delete;
  ReqAdoptScope& operator=(const ReqAdoptScope&) = delete;

 private:
  RequestTrace& rt_;
  ReqTraceRef prev_;
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_REQTRACE_H_
