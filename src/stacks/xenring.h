// Shared-memory descriptor rings, as used between Xen split-driver
// frontends and backends.
//
// A real ring lives in a shared page and is accessed with plain loads and
// stores; here the structure is a C++ queue and the cost model charges the
// descriptor copies. Notification still travels out-of-band via event
// channels — the ring is only the data plane.
//
// When the machine's observer takes race edges (E20), the ring reports the
// real protocol it models: the producer's slot stores (SharedWrite per
// descriptor), its index publish (RingPublish — the release half), and the
// consumer's index check (RingObserve — the acquire half) followed by its
// slot loads (SharedRead). Absolute produced/consumed counters per side
// stand in for the shared ring indices. BindRaceEndpoints names which
// domain plays which role — the *current* domain is wrong for completions
// that run in device-event context. SetRaceMutation seeds one protocol bug
// for the detector's self-tests.
//
// When the machine has request tracing armed (E22), every push also stashes
// the ambient request's id in the machine's shadow side-table, keyed by the
// same absolute index the race discipline uses; every pop consumes the
// stash, which appends a ring-wait queue node to the owning request's DAG
// and hands the caller its ref via popped_traces(). Batched pushes can
// carry per-slot refs (SetPushTraceRefs) because a flush serves many
// requests in one call.

#ifndef UKVM_SRC_STACKS_XENRING_H_
#define UKVM_SRC_STACKS_XENRING_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/hw/machine.h"

namespace ustack {

// Reports one split-driver access to a grant-shared payload frame to the
// race observer, if any. Keyed by (frame, current owner), so a recycled or
// flipped frame gets a fresh shadow cell — ownership transfer is its own
// ordering.
inline void RaceFrameAccess(hwsim::Machine& machine, ukvm::DomainId ctx, hwsim::Frame frame,
                            bool write, const char* what) {
  hwsim::Observer* race = machine.race_observer();
  if (race == nullptr || !ctx.valid()) {
    return;
  }
  const ukvm::DomainId owner = machine.memory().OwnerOf(frame);
  const uint64_t key = hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kFrame, frame,
                                          owner.valid() ? owner.value() : 0);
  if (write) {
    race->SharedWrite(ctx, key, 0, what);
  } else {
    race->SharedRead(ctx, key, 0, what);
  }
}

// Seeded protocol violations for the race detector's mutation self-tests.
// One-shot: the mutation applies to the next affected operation only.
enum class RingMutation : uint8_t {
  kNone = 0,
  kSkipPublish,   // producer omits one index publish -> kRingReadBeforePublish
  kEarlyPublish,  // producer publishes before the slot store -> kUnsyncedSharedAccess
};

template <typename Req, typename Resp>
class XenRing {
 public:
  XenRing(hwsim::Machine& machine, size_t capacity) : machine_(machine), capacity_(capacity) {}

  // The channel (and its in-flight slots) dies with the ring — an E19
  // backend crash, not a lost propagation point. Settle the trace
  // side-table so journaled requests replayed later still lint clean.
  ~XenRing() {
    if (ring_id_ != 0) {
      machine_.reqtrace().RingDropped(ring_id_);
    }
  }
  XenRing(const XenRing&) = delete;
  XenRing& operator=(const XenRing&) = delete;

  // Names the domains on each end for race reporting. Without this the ring
  // stays uninstrumented even when a sink is installed.
  void BindRaceEndpoints(ukvm::DomainId frontend, ukvm::DomainId backend) {
    front_ = frontend;
    back_ = backend;
  }

  void SetRaceMutation(RingMutation mutation) {
    mutation_ = mutation;
    mutation_used_ = false;
  }

  // Frontend side.
  bool PushRequest(const Req& req) {
    if (requests_.size() >= capacity_) {
      return false;
    }
    machine_.ChargeCopy(sizeof(Req));
    RaceProduce(front_, ReqKey(), req_prod_, 1);
    TraceStash(ukvm::RingSide::kRequest, req_prod_);
    requests_.push_back(req);
    ++req_prod_;
    return true;
  }
  std::optional<Resp> PopResponse() {
    popped_traces_.clear();
    if (responses_.empty()) {
      return std::nullopt;
    }
    machine_.ChargeCopy(sizeof(Resp));
    RaceConsume(front_, RespKey(), rsp_cons_, "ring.resp");
    popped_traces_.push_back(TraceConsume(ukvm::RingSide::kResponse, rsp_cons_, front_));
    Resp resp = responses_.front();
    responses_.pop_front();
    ++rsp_cons_;
    return resp;
  }

  // Backend side.
  std::optional<Req> PopRequest() {
    popped_traces_.clear();
    if (requests_.empty()) {
      return std::nullopt;
    }
    machine_.ChargeCopy(sizeof(Req));
    RaceConsume(back_, ReqKey(), req_cons_, "ring.req");
    popped_traces_.push_back(TraceConsume(ukvm::RingSide::kRequest, req_cons_, back_));
    Req req = requests_.front();
    requests_.pop_front();
    ++req_cons_;
    return req;
  }
  bool PushResponse(const Resp& resp) {
    if (responses_.size() >= capacity_) {
      return false;
    }
    machine_.ChargeCopy(sizeof(Resp));
    RaceProduce(back_, RespKey(), rsp_prod_, 1);
    TraceStash(ukvm::RingSide::kResponse, rsp_prod_);
    responses_.push_back(resp);
    ++rsp_prod_;
    return true;
  }

  // --- Batched variants -------------------------------------------------------
  // One descriptor-array copy per call instead of one per descriptor: the
  // byte volume charged is identical, but producer and consumer touch the
  // ring (and later kick/upcall) once per batch. Returns how many fit.

  size_t PushRequests(std::span<const Req> reqs) {
    const size_t n = std::min(reqs.size(), capacity_ - requests_.size());
    if (n > 0) {
      machine_.ChargeCopy(n * sizeof(Req));
      RaceProduce(front_, ReqKey(), req_prod_, n);
      TraceStashBatch(ukvm::RingSide::kRequest, req_prod_, n);
      requests_.insert(requests_.end(), reqs.begin(), reqs.begin() + static_cast<ptrdiff_t>(n));
      req_prod_ += n;
    }
    push_refs_.clear();
    return n;
  }
  std::vector<Req> PopRequests(size_t max) {
    popped_traces_.clear();
    const size_t n = std::min(max, requests_.size());
    std::vector<Req> out;
    if (n > 0) {
      machine_.ChargeCopy(n * sizeof(Req));
      for (size_t i = 0; i < n; ++i) {
        RaceConsume(back_, ReqKey(), req_cons_ + i, "ring.req");
        popped_traces_.push_back(TraceConsume(ukvm::RingSide::kRequest, req_cons_ + i, back_));
      }
      out.assign(requests_.begin(), requests_.begin() + static_cast<ptrdiff_t>(n));
      requests_.erase(requests_.begin(), requests_.begin() + static_cast<ptrdiff_t>(n));
      req_cons_ += n;
    }
    return out;
  }
  size_t PushResponses(std::span<const Resp> resps) {
    const size_t n = std::min(resps.size(), capacity_ - responses_.size());
    if (n > 0) {
      machine_.ChargeCopy(n * sizeof(Resp));
      RaceProduce(back_, RespKey(), rsp_prod_, n);
      TraceStashBatch(ukvm::RingSide::kResponse, rsp_prod_, n);
      responses_.insert(responses_.end(), resps.begin(),
                        resps.begin() + static_cast<ptrdiff_t>(n));
      rsp_prod_ += n;
    }
    push_refs_.clear();
    return n;
  }
  std::vector<Resp> PopResponses(size_t max) {
    popped_traces_.clear();
    const size_t n = std::min(max, responses_.size());
    std::vector<Resp> out;
    if (n > 0) {
      machine_.ChargeCopy(n * sizeof(Resp));
      for (size_t i = 0; i < n; ++i) {
        RaceConsume(front_, RespKey(), rsp_cons_ + i, "ring.resp");
        popped_traces_.push_back(TraceConsume(ukvm::RingSide::kResponse, rsp_cons_ + i, front_));
      }
      out.assign(responses_.begin(), responses_.begin() + static_cast<ptrdiff_t>(n));
      responses_.erase(responses_.begin(), responses_.begin() + static_cast<ptrdiff_t>(n));
      rsp_cons_ += n;
    }
    return out;
  }

  size_t pending_requests() const { return requests_.size(); }
  size_t pending_responses() const { return responses_.size(); }
  size_t capacity() const { return capacity_; }

  // --- Request-trace plumbing -------------------------------------------------

  // Per-slot request refs for the *next* batched push (slot i gets refs[i];
  // missing entries fall back to the ambient request). Consumed by the push.
  void SetPushTraceRefs(std::vector<ukvm::ReqTraceRef> refs) { push_refs_ = std::move(refs); }

  // Refs of the requests whose slots the last Pop* call consumed, in pop
  // order (invalid entries for untraced slots). Valid until the next pop.
  const std::vector<ukvm::ReqTraceRef>& popped_traces() const { return popped_traces_; }

 private:
  bool RaceOn(ukvm::DomainId ctx) const {
    return machine_.race_observer() != nullptr && ctx.valid();
  }
  uint64_t RingId() {
    if (ring_id_ == 0) {
      ring_id_ = machine_.AllocRaceObjectId();
    }
    return ring_id_;
  }
  uint64_t ReqKey() { return hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kRingReq, RingId()); }
  uint64_t RespKey() { return hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kRingResp, RingId()); }
  const char* SlotLabel(uint64_t key) const {
    return (static_cast<hwsim::RaceEdgeKind>(key >> 56) == hwsim::RaceEdgeKind::kRingReq)
               ? "ring.req"
               : "ring.resp";
  }
  bool TraceOn() const { return machine_.reqtrace().enabled(); }
  void TraceStash(ukvm::RingSide side, uint64_t index) {
    if (TraceOn()) {
      machine_.reqtrace().RingStash(RingId(), side, index);
    }
  }
  void TraceStashBatch(ukvm::RingSide side, uint64_t first, size_t count) {
    if (!TraceOn()) {
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      if (i < push_refs_.size()) {
        machine_.reqtrace().RingStashRef(RingId(), side, first + i, push_refs_[i]);
      } else {
        machine_.reqtrace().RingStash(RingId(), side, first + i);
      }
    }
  }
  ukvm::ReqTraceRef TraceConsume(ukvm::RingSide side, uint64_t index, ukvm::DomainId ctx) {
    if (!TraceOn()) {
      return ukvm::ReqTraceRef{};
    }
    return machine_.reqtrace().RingConsume(RingId(), side, index, ctx);
  }

  bool TakeMutation(RingMutation which) {
    if (mutation_ != which || mutation_used_) {
      return false;
    }
    mutation_used_ = true;
    return true;
  }

  // Traffic from before the detector was armed (the auditor attaches after
  // boot, and frontends advertise rx buffers during it) is ordered history:
  // mark everything already produced as published, with no context, so it
  // neither fires kRingReadBeforePublish nor adds an artificial HB edge.
  void RaceBaseline(hwsim::Observer& race) {
    if (race_baseline_done_) {
      return;
    }
    race_baseline_done_ = true;
    race.RingPublish(ukvm::DomainId::Invalid(), ReqKey(), req_prod_);
    race.RingPublish(ukvm::DomainId::Invalid(), RespKey(), rsp_prod_);
  }

  // Producer protocol for `count` descriptors starting at absolute index
  // `prod`: store each slot, then publish the new producer index.
  void RaceProduce(ukvm::DomainId ctx, uint64_t key, uint64_t prod, size_t count) {
    if (!RaceOn(ctx)) {
      return;
    }
    hwsim::Observer& race = *machine_.race_observer();
    RaceBaseline(race);
    if (TakeMutation(RingMutation::kEarlyPublish)) {
      // Bug under test: index published before the slot stores land.
      race.RingPublish(ctx, key, prod + count);
      for (size_t i = 0; i < count; ++i) {
        race.SharedWrite(ctx, key, (prod + i) % capacity_, SlotLabel(key));
      }
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      race.SharedWrite(ctx, key, (prod + i) % capacity_, SlotLabel(key));
    }
    if (TakeMutation(RingMutation::kSkipPublish)) {
      return;  // bug under test: slot stores with no index publish
    }
    race.RingPublish(ctx, key, prod + count);
  }

  // Consumer protocol for the descriptor at absolute index `cons`: check
  // the published index, then load the slot (skipped if unpublished, so a
  // missing publish fires exactly one rule).
  void RaceConsume(ukvm::DomainId ctx, uint64_t key, uint64_t cons, const char* what) {
    if (!RaceOn(ctx)) {
      return;
    }
    hwsim::Observer& race = *machine_.race_observer();
    RaceBaseline(race);
    if (race.RingObserve(ctx, key, cons)) {
      race.SharedRead(ctx, key, cons % capacity_, what);
    }
  }

  hwsim::Machine& machine_;
  size_t capacity_;
  std::deque<Req> requests_;
  std::deque<Resp> responses_;

  // Race instrumentation state. The absolute index counters model the
  // shared req/rsp producer/consumer indices; they cost nothing and are
  // maintained unconditionally.
  ukvm::DomainId front_ = ukvm::DomainId::Invalid();
  ukvm::DomainId back_ = ukvm::DomainId::Invalid();
  uint64_t ring_id_ = 0;
  uint64_t req_prod_ = 0;
  uint64_t req_cons_ = 0;
  uint64_t rsp_prod_ = 0;
  uint64_t rsp_cons_ = 0;
  RingMutation mutation_ = RingMutation::kNone;
  bool mutation_used_ = false;
  bool race_baseline_done_ = false;

  // Request-trace plumbing (E22): per-slot refs for the next batched push
  // and the refs consumed by the last pop.
  std::vector<ukvm::ReqTraceRef> push_refs_;
  std::vector<ukvm::ReqTraceRef> popped_traces_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_XENRING_H_
