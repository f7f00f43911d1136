#include "src/stacks/blksplit.h"

#include <cassert>

#include "src/core/log.h"

namespace ustack {

using ukvm::DomainId;
using ukvm::Err;

namespace {

constexpr hwsim::Vaddr kBlkMapBase = 0xE800'0000ull;
constexpr uint32_t kBlkMapSlots = 64;
constexpr size_t kRingCapacity = 64;

}  // namespace

// --- BlkBack ---------------------------------------------------------------------

BlkBack::BlkBack(hwsim::Machine& machine, uvmm::Hypervisor& hv, DomainId backend,
                 udrv::DiskDriver& driver, PortMux& mux, minios::BlkStore& store)
    : machine_(machine),
      hv_(hv),
      backend_(backend),
      driver_(driver),
      mux_(mux),
      health_(machine, "vmm.blk"),
      store_(store),
      mappings_(hv, backend, kBlkMapBase, kBlkMapSlots) {
  req_dev_name_ = machine_.reqtrace().InternName("disk.io");
}

uint32_t BlkBack::block_size() const {
  return static_cast<uint32_t>(machine_.memory().page_size() / driver_.blocks_per_page());
}

BlkChannel* BlkBack::Connect(DomainId guest) {
  auto slice_base = store_.SliceBase(guest);
  if (!slice_base.ok()) {
    return nullptr;
  }
  auto chan = std::make_unique<BlkChannel>();
  chan->guest = guest;
  chan->ring = std::make_unique<XenRing<BlkReq, BlkResp>>(machine_, kRingCapacity);
  auto port = hv_.HcEvtchnAllocUnbound(backend_, guest);
  if (!port.ok()) {
    return nullptr;
  }
  chan->back_port = *port;
  chan->slice_base = *slice_base;
  chan->slice_blocks = store_.slice_blocks();
  BlkChannel* raw = chan.get();
  mux_.Route(raw->back_port, [this, raw] { OnKick(*raw); });
  channels_.push_back(std::move(chan));
  return raw;
}

void BlkBack::Kill() {
  alive_ = false;
  mappings_.UnmapAll();
  for (const auto& chan : channels_) {
    mux_.Unroute(chan->back_port);
    (void)hv_.HcEvtchnClose(backend_, chan->back_port);
  }
}

void BlkBack::OnKick(BlkChannel& chan) {
  if (wedged_ || !alive_) {
    return;  // wedged: alive but unresponsive; requests rot in the ring
  }
  while (auto req = chan.ring->PopRequest()) {
    // Adopt the guest's request so the grant work and the response stash
    // (or the device completion below) land on its DAG.
    const ukvm::ReqTraceRef req_ref = chan.ring->popped_traces().empty()
                                          ? ukvm::ReqTraceRef{}
                                          : chan.ring->popped_traces()[0];
    ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
    const auto answer = [&](Err status) {
      chan.ring->PushResponse(BlkResp{req->id, status});
      (void)hv_.HcEvtchnSend(backend_, chan.back_port);
    };
    Err err = Err::kNone;
    if (req->count == 0 || req->count > driver_.blocks_per_page() ||
        req->lba + req->count > chan.slice_blocks) {
      err = Err::kOutOfRange;
    } else if (req->is_write && store_.AlreadyApplied(chan.guest, req->id, req->low_water)) {
      // Journal replay of a write that landed before the crash: answer
      // success from the store without touching the disk (exactly-once).
      answer(Err::kNone);
      continue;
    } else if (health_.ShouldFastFail()) {
      err = Err::kRetryExhausted;
    }
    hwsim::Vaddr map_va = 0;
    hwsim::Frame frame = 0;
    if (err == Err::kNone) {
      auto va = mappings_.Map(chan.guest, req->gref, !req->is_write);
      err = ukvm::GetErr(va);
      if (err == Err::kNone) {
        map_va = *va;
        uvmm::Domain* back_dom = hv_.FindDomain(backend_);
        const hwsim::Pte* pte = back_dom->space.Walk(map_va);
        assert(pte != nullptr && pte->present);
        frame = pte->frame;
        if (req->is_write) {
          // The disk DMA reads the guest's payload out of the mapped page.
          RaceFrameAccess(machine_, backend_, frame, /*write=*/false, "blk.payload");
        }
      }
    }
    if (err != Err::kNone) {
      answer(err);
      continue;
    }
    const uint64_t abs_lba = chan.slice_base + req->lba;
    const uint64_t id = req->id;
    const bool is_write = req->is_write;
    BlkChannel* chan_ptr = &chan;
    const uint64_t submit_t0 = machine_.Now();
    auto done = [this, chan_ptr, id, map_va, is_write, frame, req_ref, submit_t0](Err status) {
      if (status == Err::kNone && is_write) {
        store_.MarkApplied(chan_ptr->guest, id);  // the disk has it
      }
      if (!alive_) {
        return;  // orphaned by Kill: the mapping and the channel are gone
      }
      // Device completion runs in event context with no ambient request;
      // re-adopt so the disk leaf and the response stash stay causal.
      ukvm::ReqAdoptScope dev_scope(machine_.reqtrace(), req_ref);
      machine_.reqtrace().AddLeaf(req_dev_name_, ukvm::ReqNodeKind::kDevice,
                                  backend_, submit_t0, machine_.Now());
      if (status == Err::kNone) {
        health_.RecordSuccess();
        if (!is_write) {
          // The disk DMA filled the guest's page; this completion runs in
          // device-event context, so the backend id is named explicitly.
          RaceFrameAccess(machine_, backend_, frame, /*write=*/true, "blk.payload");
        }
      } else {
        health_.RecordFailure();
      }
      mappings_.Done(map_va);
      chan_ptr->ring->PushResponse(BlkResp{id, status});
      ++served_;
      (void)hv_.HcEvtchnSend(backend_, chan_ptr->back_port);
    };
    const Err submit = req->is_write ? driver_.Write(abs_lba, req->count, frame, done)
                                     : driver_.Read(abs_lba, req->count, frame, done);
    if (submit != Err::kNone) {
      mappings_.Done(map_va);
      answer(submit);
    }
  }
}

// --- BlkFront --------------------------------------------------------------------

BlkFront::BlkFront(hwsim::Machine& machine, uvmm::Hypervisor& hv, DomainId guest,
                   std::vector<uvmm::Pfn> pool, PortMux& mux)
    : machine_(machine), hv_(hv), guest_(guest), mux_(mux),
      free_pfns_(pool.begin(), pool.end()), grants_(hv, guest), xenbus_(machine, "blk", guest) {
  hist_blk_e2e_ = machine_.tracer().InternHistogram("blk.e2e");
  auto& rt = machine_.reqtrace();
  req_write_name_ = rt.InternName("blk.write");
  req_read_name_ = rt.InternName("blk.read");
  req_rec_detect_name_ = rt.InternName("recovery.detect");
  req_rec_reconnect_name_ = rt.InternName("recovery.reconnect");
  req_rec_replay_name_ = rt.InternName("recovery.replay");
}

BlkFront::~BlkFront() {
  StopLivenessProbe();  // a queued ProbeTick must not outlive `this`
}

Err BlkFront::ProbeBackend(uint64_t timeout_cycles) {
  if (chan_ == nullptr) {
    return Err::kWouldBlock;
  }
  const uint64_t id = journal_.NextId();
  const uint64_t t0 = machine_.Now();
  UKVM_TRY(SendProbe(id));
  const Err err = machine_.WaitUntil(
      [&] { return completed_.contains(id) || chan_ == nullptr; }, timeout_cycles);
  if (completed_.contains(id)) {
    completed_.erase(id);
    return Err::kNone;
  }
  if (chan_ == nullptr) {
    return Err::kDead;  // the backend died outright mid-probe
  }
  if (err == Err::kTimedOut || err == Err::kWouldBlock) {
    // kWouldBlock: the event queue drained with no reply — the backend is
    // just as wedged as on a timeout. Mark the failure at probe-issue time
    // (the wedge predates the probe) and drive the conn to kClosing; this
    // lands in the same recovery.detect histogram as supervisor detection.
    ++probe_detections_;
    xenbus_.MarkFailure(t0);
    xenbus_.OnDetected();
    return Err::kTimedOut;
  }
  return err;
}

Err BlkFront::SendProbe(uint64_t id) {
  // Zero-block read: the backend's bounds check rejects it (kOutOfRange)
  // straight from the kick handler, before any grant work. The status is
  // irrelevant — any answer proves the backend is pumping its ring.
  if (!chan_->ring->PushRequest(BlkReq{id, /*is_write=*/false, 0, 0, 0})) {
    return Err::kBusy;
  }
  return hv_.HcEvtchnSend(guest_, chan_->front_port);
}

void BlkFront::StartLivenessProbe(uint64_t interval_cycles, uint64_t timeout_cycles) {
  StopLivenessProbe();
  if (interval_cycles == 0) {
    return;
  }
  probe_interval_ = interval_cycles;
  probe_timeout_ = timeout_cycles;
  probe_event_ = machine_.ScheduleAfter(probe_interval_, [this] { ProbeTick(); });
  probe_event_armed_ = true;
}

void BlkFront::StopLivenessProbe() {
  if (probe_event_armed_) {
    machine_.CancelEvent(probe_event_);
    probe_event_armed_ = false;
  }
  probe_interval_ = 0;
  probe_inflight_ = false;
}

void BlkFront::ProbeTick() {
  probe_event_armed_ = false;
  if (probe_interval_ == 0) {
    return;  // stopped while the tick was queued
  }
  // Judge the previous probe first.
  if (probe_inflight_) {
    if (completed_.contains(probe_id_)) {
      completed_.erase(probe_id_);
      probe_inflight_ = false;
    } else if (chan_ == nullptr) {
      probe_inflight_ = false;  // backend death already handled elsewhere
    } else if (machine_.Now() >= probe_deadline_) {
      probe_inflight_ = false;
      ++probe_detections_;
      xenbus_.MarkFailure(probe_sent_at_);
      xenbus_.OnDetected();
    }
  }
  // Issue the next one while the connection believes itself healthy.
  if (!probe_inflight_ && chan_ != nullptr && xenbus_.connected()) {
    const uint64_t id = journal_.NextId();
    if (SendProbe(id) == Err::kNone) {
      probe_inflight_ = true;
      probe_id_ = id;
      probe_sent_at_ = machine_.Now();
      probe_deadline_ = machine_.Now() + probe_timeout_;
    }
  }
  probe_event_ = machine_.ScheduleAfter(probe_interval_, [this] { ProbeTick(); });
  probe_event_armed_ = true;
}

Err BlkFront::Connect(BlkBack& back) {
  chan_ = back.Connect(guest_);
  if (chan_ == nullptr) {
    return Err::kNoMemory;
  }
  backend_ = back.backend();
  grants_.Attach(backend_, back.persistent_grants());
  chan_->ring->BindRaceEndpoints(guest_, backend_);
  block_size_ = back.block_size();
  capacity_ = chan_->slice_blocks;
  auto port = hv_.HcEvtchnBind(guest_, backend_, chan_->back_port);
  if (!port.ok()) {
    return port.error();
  }
  chan_->front_port = *port;
  mux_.Route(chan_->front_port, [this] { OnResponse(); });
  if (xenbus_.state() == XenbusState::kInit) {
    xenbus_.OnConnected();
    return Err::kNone;
  }
  xenbus_.OnReconnected();
  // Attach the recovery phases to every journaled request's DAG: the outage
  // window [failure, detected] and the rebuild [detected, reconnected] are
  // exactly where those requests' wall-clock went (E22). The replay segment
  // is added per entry as it is re-submitted.
  const RecoveryPhases phases = xenbus_.last_phases();
  if (phases.valid()) {
    for (const auto& [id, entry] : journal_.entries()) {
      machine_.reqtrace().AddLeafTo(entry.trace, req_rec_detect_name_,
                                    ukvm::ReqNodeKind::kRecovery, guest_, phases.failure_at,
                                    phases.detected_at);
      machine_.reqtrace().AddLeafTo(entry.trace, req_rec_reconnect_name_,
                                    ukvm::ReqNodeKind::kRecovery, guest_, phases.detected_at,
                                    phases.reconnected_at);
    }
  }
  // Replay unanswered writes in id order with their original ids; the
  // store turns duplicates into success replies. If the backend dies again
  // mid-replay the tail stays journaled for the next reconnect.
  const uint64_t replayed = journal_.Replay([this](uint64_t id, const auto& entry) {
    (void)SubmitChunk(id, /*is_write=*/true, entry.lba, entry.count, {}, entry.payload);
  });
  xenbus_.OnReplayed(replayed);
  return Err::kNone;
}

void BlkFront::OnBackendDead(DomainId dead) {
  if (dead != backend_ || chan_ == nullptr) {
    return;
  }
  xenbus_.MarkFailure(machine_.Now());
  const bool backend_alive = hv_.DomainAlive(backend_);
  grants_.EndCached(backend_alive);
  mux_.Unroute(chan_->front_port);
  if (backend_alive) {
    (void)hv_.HcEvtchnClose(guest_, chan_->front_port);
  }
  // Dropping the channel wakes any in-flight DoRequest wait with kDead; the
  // channel object itself dies with the backend. Journaled writes stay.
  chan_ = nullptr;
}

void BlkFront::OnResponse() {
  if (chan_ == nullptr) {
    // Late upcall from a backend that died after OnBackendDead dropped the
    // channel (a crashed Dom0 driver can still fire queued events); the
    // ring died with it, so there is nothing to pop.
    return;
  }
  while (auto resp = chan_->ring->PopResponse()) {
    completed_[resp->id] = resp->status;
  }
}

Err BlkFront::Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) {
  return DoRequest(/*is_write=*/false, lba, count, out, {});
}

Err BlkFront::Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) {
  return DoRequest(/*is_write=*/true, lba, count, {}, in);
}

Err BlkFront::DoRequest(bool is_write, uint64_t lba, uint32_t count, std::span<uint8_t> out,
                        std::span<const uint8_t> in) {
  if (chan_ == nullptr) {
    // A never-connected frontend would block; once connected, a null
    // channel means OnBackendDead dropped it, so report the death (the
    // channel comes back via Connect). Nothing is journaled: the request
    // never reached a ring.
    return backend_.valid() ? Err::kDead : Err::kWouldBlock;
  }
  if (block_size_ == 0) {
    return Err::kInvalidArgument;
  }
  const auto span_size = is_write ? in.size() : out.size();
  if (span_size < uint64_t{count} * block_size_) {
    return Err::kInvalidArgument;
  }
  const uint32_t blocks_per_page =
      static_cast<uint32_t>(machine_.memory().page_size() / block_size_);
  uint32_t done = 0;
  while (done < count) {
    if (!hv_.DomainAlive(backend_)) {
      return Err::kDead;
    }
    const uint32_t chunk = std::min(count - done, blocks_per_page);
    const uint64_t offset = uint64_t{done} * block_size_;
    const uint64_t bytes = uint64_t{chunk} * block_size_;
    // Each side's span is empty on the other kind of request.
    const Err err = SubmitChunk(/*replay_id=*/0, is_write, lba + done, chunk,
                                is_write ? out : out.subspan(offset, bytes),
                                is_write ? in.subspan(offset, bytes) : in);
    if (err != Err::kNone) {
      return err;
    }
    done += chunk;
  }
  return Err::kNone;
}

Err BlkFront::SubmitChunk(uint64_t replay_id, bool is_write, uint64_t lba, uint32_t count,
                          std::span<uint8_t> out, std::span<const uint8_t> in) {
  if (chan_ == nullptr) {
    return Err::kDead;  // the backend died between two chunks or replays
  }
  if (free_pfns_.empty()) {
    return Err::kBusy;
  }
  // One traced request per chunk: the staging copy, grant, ring stash,
  // kick, and (on reads) the payload copy-out all attribute to it. A replay
  // re-issues the *original* request: it re-adopts that trace and forgives
  // the handoffs that died with the old backend (ring stash, lost upcall).
  auto& rt = machine_.reqtrace();
  const bool replay = replay_id != 0;
  ukvm::ReqTraceRef trace;
  if (replay) {
    trace = journal_.entries().at(replay_id).trace;
    rt.ForgiveHandoffs(trace);
  } else {
    trace = rt.BeginRequest(is_write ? req_write_name_ : req_read_name_, guest_);
  }
  ukvm::ReqAdoptScope req_scope(rt, trace);
  const uint64_t t0 = machine_.Now();
  const uvmm::Pfn pfn = free_pfns_.front();
  free_pfns_.pop_front();
  auto mfn = hv_.FindDomain(guest_)->MfnOf(pfn);
  assert(mfn.ok());

  if (is_write) {
    // Guest kernel copies the payload into the I/O page.
    machine_.memory().Write(machine_.memory().FrameBase(*mfn), in);
    machine_.ChargeCopy(in.size());
    RaceFrameAccess(machine_, guest_, *mfn, /*write=*/true, "blk.payload");
  }
  // The backend writes the page on a read.
  auto grant = grants_.Grant(pfn, /*writable=*/!is_write);
  if (!grant.ok()) {
    free_pfns_.push_back(pfn);
    if (!replay) {
      rt.AbandonRequest(trace);
    }
    return grant.error();
  }
  const uint32_t gref = *grant;
  uint64_t id = replay_id;
  if (!replay) {
    id = is_write ? journal_.Add(lba, count, in, trace) : journal_.NextId();
  }
  chan_->ring->PushRequest(
      BlkReq{id, is_write, lba, count, gref, is_write ? journal_.LowWater() : 0});
  Err err = hv_.HcEvtchnSend(guest_, chan_->front_port);
  if (err == Err::kNone) {
    // Also wake on backend death (OnBackendDead nulls the channel)
    // instead of riding out the full timeout against a corpse.
    err = machine_.WaitUntil([&] { return completed_.contains(id) || chan_ == nullptr; },
                             2'000'000'000ull);
  }
  bool answered = false;
  if (err == Err::kNone) {
    if (completed_.contains(id)) {
      answered = true;
      err = completed_[id];
      completed_.erase(id);
    } else {
      err = Err::kDead;  // the backend died under us
    }
  }
  // An answered write's fate is known, so it leaves the journal. An
  // unanswered one (death or timeout) stays: Connect replays it and the
  // store keeps the disk exactly-once.
  if (is_write && answered) {
    journal_.Resolve(id, err == Err::kNone);
  }
  if (replay && answered) {
    rt.AddLeafTo(trace, req_rec_replay_name_, ukvm::ReqNodeKind::kRecovery, guest_, t0,
                 machine_.Now());
    rt.EndRequest(trace);
  }
  // The request ends its own grant, also after its backend's domain died
  // (the hypervisor then answers that the grant is gone).
  grants_.Release(gref);
  if (err == Err::kNone && !is_write) {
    RaceFrameAccess(machine_, guest_, *mfn, /*write=*/false, "blk.payload");
    machine_.memory().Read(machine_.memory().FrameBase(*mfn), out);
    machine_.ChargeCopy(out.size());
  }
  if (!replay) {
    if (err == Err::kNone) {
      rt.EndRequest(trace);
      machine_.tracer().RecordLatency(hist_blk_e2e_, machine_.Now() - t0);
    } else if (!is_write || answered) {
      // Journaled-unanswered writes stay live: Connect's replay resolves
      // them and their DAG gains the recovery-phase leaves.
      rt.AbandonRequest(trace);
    }
  }
  free_pfns_.push_back(pfn);
  return err;
}

}  // namespace ustack
