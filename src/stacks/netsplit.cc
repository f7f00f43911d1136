#include "src/stacks/netsplit.h"

#include <algorithm>
#include <cassert>

#include "src/core/log.h"

namespace ustack {

using ukvm::DomainId;
using ukvm::Err;

const char* RxModeName(RxMode mode) {
  return mode == RxMode::kPageFlip ? "page-flip" : "grant-copy";
}

namespace {

// Scratch VA region in the backend where granted tx pages are mapped.
constexpr hwsim::Vaddr kBackendMapBase = 0xE000'0000ull;
constexpr uint32_t kBackendMapSlots = 64;
constexpr size_t kRingCapacity = 256;

}  // namespace

// --- NetBack ---------------------------------------------------------------------

NetBack::NetBack(hwsim::Machine& machine, uvmm::Hypervisor& hv, DomainId backend,
                 udrv::NicDriver& driver, RxMode mode, PortMux& mux,
                 const minios::NetRoutes& routes)
    : machine_(machine), hv_(hv), backend_(backend), driver_(driver), mode_(mode), mux_(mux),
      routes_(routes), health_(machine, "vmm.net"),
      tx_maps_(hv, backend, kBackendMapBase, kBackendMapSlots) {
  hist_rx_backlog_ = machine_.tracer().InternHistogram("net.rx.backlog");
  req_rx_name_ = machine_.reqtrace().InternName("net.rx");
  req_flush_name_ = machine_.reqtrace().InternName("net.rx.flush");
  req_dev_name_ = machine_.reqtrace().InternName("nic.send");
}

NetChannel* NetBack::Connect(DomainId guest) {
  auto chan = std::make_unique<NetChannel>();
  chan->guest = guest;
  chan->tx_ring = std::make_unique<XenRing<NetTxReq, NetTxResp>>(machine_, kRingCapacity);
  chan->rx_ring = std::make_unique<XenRing<NetRxReq, NetRxResp>>(machine_, kRingCapacity);
  auto tx_port = hv_.HcEvtchnAllocUnbound(backend_, guest);
  auto rx_port = hv_.HcEvtchnAllocUnbound(backend_, guest);
  if (!tx_port.ok() || !rx_port.ok()) {
    return nullptr;
  }
  chan->back_tx_port = *tx_port;
  chan->back_rx_port = *rx_port;
  NetChannel* raw = chan.get();
  mux_.Route(raw->back_tx_port, [this, raw] { OnTxKick(*raw); });
  mux_.Route(raw->back_rx_port, [] { /* rx-slot replenish notification */ });
  channels_.push_back(std::move(chan));
  return raw;
}

NetChannel* NetBack::ChannelFor(std::span<const uint8_t> packet) {
  if (!alive_) {
    return nullptr;  // a killed netback delivers nothing
  }
  if (const auto client = routes_.Classify(packet)) {
    for (auto& chan : channels_) {
      if (chan->guest == *client) {
        return chan.get();
      }
    }
    return nullptr;
  }
  return channels_.empty() ? nullptr : channels_.front().get();
}

void NetBack::Kill() {
  alive_ = false;
  tx_maps_.UnmapAll();
  for (const auto& chan : channels_) {
    for (const uint32_t port : {chan->back_tx_port, chan->back_rx_port}) {
      mux_.Unroute(port);
      (void)hv_.HcEvtchnClose(backend_, port);
    }
  }
}

void NetBack::OnTxKick(NetChannel& chan) {
  if (!alive_) {
    return;
  }
  bool any = false;
  while (auto req = chan.tx_ring->PopRequest()) {
    // Adopt the guest's tx request for the duration of this service step so
    // the device leaf and the response's ring stash land on its DAG.
    const ukvm::ReqTraceRef req_ref = chan.tx_ring->popped_traces().empty()
                                          ? ukvm::ReqTraceRef{}
                                          : chan.tx_ring->popped_traces()[0];
    ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
    any = true;
    if (health_.ShouldFastFail()) {
      chan.tx_ring->PushResponse(NetTxResp{req->gref, Err::kRetryExhausted});
      continue;
    }
    // Map the guest's granted page and transmit straight out of it
    // (zero-copy TX). Transient mode unmaps after the send; persistent mode
    // keeps the mapping for every reuse of the gref.
    auto map_va = tx_maps_.Map(chan.guest, req->gref, /*write=*/false);
    Err err = ukvm::GetErr(map_va);
    if (err == Err::kNone) {
      uvmm::Domain* back_dom = hv_.FindDomain(backend_);
      const hwsim::Pte* pte = back_dom->space.Walk(*map_va);
      assert(pte != nullptr && pte->present);
      RaceFrameAccess(machine_, backend_, pte->frame, /*write=*/false, "net.tx.payload");
      const uint64_t dev_t0 = machine_.Now();
      err = driver_.SendFrame(pte->frame, req->len);
      machine_.reqtrace().AddLeaf(req_dev_name_, ukvm::ReqNodeKind::kDevice, backend_, dev_t0,
                                  machine_.Now());
      if (err == Err::kNone) {
        health_.RecordSuccess();
      } else {
        health_.RecordFailure();  // the NIC refused the frame
      }
      tx_maps_.Done(*map_va);
    }
    if (err == Err::kNone) {
      ++tx_packets_;
    }
    chan.tx_ring->PushResponse(NetTxResp{req->gref, err});
  }
  if (any) {
    (void)hv_.HcEvtchnSend(backend_, chan.back_tx_port);
  }
}

void NetBack::OnPacketReceived(hwsim::Frame frame, uint32_t len) {
  if (rx_batch_ > 1) {
    // The rx request is born when the wire hands us the packet; it then
    // queues in the staging buffer until the flush delivers it.
    const ukvm::ReqTraceRef trace = machine_.reqtrace().BeginRequest(req_rx_name_, backend_);
    rx_staged_.push_back(StagedRx{frame, len, machine_.Now(), trace});
    if (rx_staged_.size() >= rx_batch_) {
      FlushRx();
    }
    return;
  }
  DeliverOne(frame, len);
}

void NetBack::SetRxBatch(size_t batch) {
  rx_batch_ = batch == 0 ? 1 : batch;
  if (rx_staged_.size() >= rx_batch_) {
    FlushRx();
  }
}

void NetBack::FlushRx() {
  if (rx_staged_.empty()) {
    return;
  }
  std::vector<StagedRx> staged;
  staged.swap(rx_staged_);
  ++rx_flushes_;
  uvmm::Domain* back_dom = hv_.FindDomain(backend_);

  // Partition the burst by destination channel, preserving arrival order.
  // Frames the driver handed us are returned via RepostRx once delivered
  // (flip: the exchanged page; copy/drop: the original).
  std::vector<std::pair<NetChannel*, std::vector<size_t>>> by_chan;
  for (size_t i = 0; i < staged.size(); ++i) {
    auto data = machine_.memory().FrameData(staged[i].frame);
    NetChannel* chan = ChannelFor(data.subspan(0, staged[i].len));
    if (chan == nullptr || !hv_.DomainAlive(chan->guest)) {
      ++rx_dropped_;
      driver_.RepostRx(staged[i].frame);
      machine_.reqtrace().AbandonRequest(staged[i].trace);
      continue;
    }
    auto it = std::find_if(by_chan.begin(), by_chan.end(),
                           [chan](const auto& p) { return p.first == chan; });
    if (it == by_chan.end()) {
      by_chan.push_back({chan, {i}});
    } else {
      it->second.push_back(i);
    }
  }

  for (auto& [chan, idx] : by_chan) {
    auto reqs = chan->rx_ring->PopRequests(idx.size());
    std::vector<uvmm::MulticallOp> ops;
    std::vector<size_t> op_staged;  // staged index per op, parallel to ops
    std::vector<NetRxReq> op_reqs;
    std::vector<NetRxResp> resps;
    std::vector<ukvm::ReqTraceRef> op_traces;    // rx request per op, parallel to ops
    std::vector<ukvm::ReqTraceRef> resp_traces;  // rx request per response slot
    for (size_t k = 0; k < idx.size(); ++k) {
      const StagedRx& pkt = staged[idx[k]];
      if (k >= reqs.size()) {
        ++rx_dropped_;  // guest has no receive slot posted
        driver_.RepostRx(pkt.frame);
        machine_.reqtrace().AbandonRequest(pkt.trace);
        continue;
      }
      auto local_pfn = back_dom->PfnOf(pkt.frame);
      if (!local_pfn.ok()) {
        ++rx_dropped_;
        driver_.RepostRx(pkt.frame);
        // The slot request is consumed; answer it so the guest recycles it.
        // The response carries the trace: the frontend abandons it there.
        resps.push_back(NetRxResp{reqs[k].ref, reqs[k].pfn, 0, Err::kOutOfRange});
        resp_traces.push_back(pkt.trace);
        continue;
      }
      uvmm::MulticallOp op;
      if (mode_ == RxMode::kPageFlip) {
        op.kind = uvmm::MulticallOp::Kind::kGrantTransfer;
        op.peer = chan->guest;
        op.ref = reqs[k].ref;
        op.pfn = *local_pfn;
      } else {
        op.kind = uvmm::MulticallOp::Kind::kGrantCopy;
        op.peer = chan->guest;
        op.ref = reqs[k].ref;
        op.pfn = *local_pfn;
        op.len = pkt.len;
        op.flag = true;  // to_grant
      }
      ops.push_back(op);
      op_staged.push_back(idx[k]);
      op_reqs.push_back(reqs[k]);
      op_traces.push_back(pkt.trace);
    }

    // The whole burst's flips (or copies) cross into the hypervisor once;
    // transfers inside share one deferred TLB shootdown. Every request in
    // the burst shares the multicall span — the amortised cost shows up
    // once per participant, at its true (shared) wall-clock width.
    const uint64_t mc_t0 = machine_.Now();
    auto out = hv_.HcMulticall(backend_, ops);
    machine_.reqtrace().AttachSharedSpan(op_traces, req_flush_name_, ukvm::ReqNodeKind::kCompute,
                                         backend_, mc_t0, machine_.Now());
    for (size_t j = 0; j < ops.size(); ++j) {
      const StagedRx& pkt = staged[op_staged[j]];
      const Err st = j < out.results.size() ? out.results[j].status
                     : out.status != Err::kNone ? out.status
                                                : Err::kAborted;
      if (st == Err::kNone) {
        ++rx_delivered_;
        machine_.tracer().RecordLatency(hist_rx_backlog_, machine_.Now() - pkt.arrived);
        driver_.RepostRx(mode_ == RxMode::kPageFlip
                             ? static_cast<hwsim::Frame>(out.results[j].value)
                             : pkt.frame);
      } else {
        ++rx_dropped_;
        driver_.RepostRx(pkt.frame);
      }
      resps.push_back(NetRxResp{op_reqs[j].ref, op_reqs[j].pfn, pkt.len, st});
      resp_traces.push_back(pkt.trace);
    }
    if (!resps.empty()) {
      chan->rx_ring->SetPushTraceRefs(resp_traces);
      chan->rx_ring->PushResponses(std::span<const NetRxResp>(resps));
      // One notification covers the burst (and coalesces with any pending).
      (void)hv_.HcEvtchnSend(backend_, chan->back_rx_port);
    }
  }
}

void NetBack::DeliverOne(hwsim::Frame frame, uint32_t len) {
  // Unbatched path: the rx request is born and serviced in one step; the
  // scope makes the flip/copy crossings and the response stash its children.
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_rx_name_, backend_);
  auto data = machine_.memory().FrameData(frame);
  NetChannel* chan = ChannelFor(data.subspan(0, len));
  if (chan == nullptr || !hv_.DomainAlive(chan->guest)) {
    ++rx_dropped_;
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return;
  }
  auto req = chan->rx_ring->PopRequest();
  if (!req) {
    ++rx_dropped_;  // guest has no receive slot posted
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return;
  }

  uvmm::Domain* back_dom = hv_.FindDomain(backend_);
  auto local_pfn = back_dom->PfnOf(frame);
  if (!local_pfn.ok()) {
    ++rx_dropped_;
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return;
  }

  Err err = Err::kNone;
  if (mode_ == RxMode::kPageFlip) {
    // The flip: the packet-bearing page moves to the guest; the guest's
    // advertised slot page comes back and becomes a future rx buffer.
    auto exchanged = hv_.HcGrantTransfer(backend_, *local_pfn, chan->guest, req->ref);
    if (exchanged.ok()) {
      driver_.ReplaceRxFrame(frame, *exchanged);
    } else {
      err = exchanged.error();
    }
  } else {
    err = hv_.HcGrantCopy(backend_, chan->guest, req->ref, /*grant_off=*/0, *local_pfn,
                          /*local_off=*/0, len, /*to_grant=*/true);
  }
  if (err == Err::kNone) {
    ++rx_delivered_;
  } else {
    ++rx_dropped_;
  }
  chan->rx_ring->PushResponse(NetRxResp{req->ref, req->pfn, len, err});
  (void)hv_.HcEvtchnSend(backend_, chan->back_rx_port);
}

// --- NetFront --------------------------------------------------------------------

NetFront::NetFront(hwsim::Machine& machine, uvmm::Hypervisor& hv, DomainId guest,
                   std::vector<uvmm::Pfn> pool, PortMux& mux)
    : machine_(machine), hv_(hv), guest_(guest), mux_(mux),
      free_pfns_(pool.begin(), pool.end()), pool_(std::move(pool)), grants_(hv, guest),
      xenbus_(machine, "net", guest) {
  hist_tx_e2e_ = machine_.tracer().InternHistogram("net.tx.e2e");
  req_tx_name_ = machine_.reqtrace().InternName("net.tx");
}

void NetFront::OnBackendDead(DomainId dead) {
  if (dead != backend_ || chan_ == nullptr) {
    return;
  }
  xenbus_.MarkFailure(machine_.Now());
  const bool backend_alive = hv_.DomainAlive(backend_);
  // Exactly-once rx read-back: responses already published in the ring
  // carry payloads that landed in guest-visible memory before the backend
  // died (the flip or copy had happened), so draining them now loses
  // nothing — this is the receive-side mirror of the blk journal's
  // "applied but unacknowledged" interleaving. Only responses whose
  // payload cannot be reached count as dropped.
  uvmm::Domain* dom = hv_.FindDomain(guest_);
  while (auto resp = chan_->rx_ring->PopResponse()) {
    const ukvm::ReqTraceRef req_ref = chan_->rx_ring->popped_traces().empty()
                                          ? ukvm::ReqTraceRef{}
                                          : chan_->rx_ring->popped_traces()[0];
    ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
    ForgetPostedRxSlot(resp->pfn);
    if (backend_alive && (mode_ == RxMode::kGrantCopy || resp->status != Err::kNone)) {
      (void)hv_.HcGrantEnd(guest_, resp->ref);  // only a flip consumes the slot's grant
    }
    if (DeliverRxPayload(dom, resp->pfn, resp->len, resp->status)) {
      ++rx_recovered_on_crash_;
      // The notification upcall died with the backend; the read-back IS
      // the delivery, so the dangling evtchn handoff is forgiven.
      machine_.reqtrace().ForgiveHandoffs(req_ref);
      machine_.reqtrace().EndRequest(req_ref);
    } else {
      if (resp->status == Err::kNone) {
        ++rx_dropped_on_crash_;
      }
      machine_.reqtrace().AbandonRequest(req_ref);
    }
  }
  // In-flight tx packets die with the backend (the NIC contract: upper
  // layers retransmit), counted so the bench can report them.
  tx_dropped_on_crash_ += tx_in_flight_.size();
  for (const auto& [gref, tx] : tx_in_flight_) {
    machine_.reqtrace().AbandonRequest(tx.trace);
    if (backend_alive) {
      grants_.Release(gref);
    }
  }
  grants_.EndCached(backend_alive);
  mux_.Unroute(chan_->front_tx_port);
  mux_.Unroute(chan_->front_rx_port);
  if (backend_alive) {
    for (const NetRxReq& slot : rx_posted_) {
      (void)hv_.HcGrantEnd(guest_, slot.ref);
    }
    (void)hv_.HcEvtchnClose(guest_, chan_->front_tx_port);
    (void)hv_.HcEvtchnClose(guest_, chan_->front_rx_port);
  }
  tx_in_flight_.clear();
  rx_posted_.clear();
  chan_ = nullptr;
  free_pfns_.assign(pool_.begin(), pool_.end());
}

uint32_t NetFront::front_rx_port() const {
  return chan_ != nullptr ? chan_->front_rx_port : 0;
}

bool NetFront::DeliverRxPayload(uvmm::Domain* dom, uint32_t pfn, uint32_t len, Err status) {
  if (status != Err::kNone || dom == nullptr) {
    return false;
  }
  auto mfn = dom->MfnOf(pfn);
  if (!mfn.ok()) {
    return false;
  }
  auto data = machine_.memory().FrameData(*mfn);
  // The guest network stack copies the payload out of the (flipped or
  // filled) page.
  RaceFrameAccess(machine_, guest_, *mfn, /*write=*/false, "net.rx.payload");
  std::vector<uint8_t> bytes(data.begin(), data.begin() + len);
  machine_.ChargeCopy(len);
  ++rx_received_;
  if (handler_) {
    handler_(bytes);
  }
  return true;
}

void NetFront::ForgetPostedRxSlot(uvmm::Pfn pfn) {
  auto it = std::find_if(rx_posted_.begin(), rx_posted_.end(),
                         [pfn](const NetRxReq& slot) { return slot.pfn == pfn; });
  if (it != rx_posted_.end()) {
    rx_posted_.erase(it);
  }
}

Err NetFront::Connect(NetBack& back) {
  chan_ = back.Connect(guest_);
  if (chan_ == nullptr) {
    return Err::kNoMemory;
  }
  mode_ = back.mode();
  io_batch_ = back.rx_batch();
  persistent_ = back.persistent_grants();
  // The handshake carries the backend id out of band (as xenstore would).
  backend_ = back.backend();
  grants_.Attach(backend_, persistent_);
  chan_->tx_ring->BindRaceEndpoints(guest_, backend_);
  chan_->rx_ring->BindRaceEndpoints(guest_, backend_);

  auto tx_port = hv_.HcEvtchnBind(guest_, backend_, chan_->back_tx_port);
  auto rx_port = hv_.HcEvtchnBind(guest_, backend_, chan_->back_rx_port);
  if (!tx_port.ok() || !rx_port.ok()) {
    return Err::kNoMemory;
  }
  chan_->front_tx_port = *tx_port;
  chan_->front_rx_port = *rx_port;
  mux_.Route(chan_->front_tx_port, [this] { OnTxResponse(); });
  mux_.Route(chan_->front_rx_port, [this] { OnRxResponse(); });

  for (size_t i = 0; i < rx_window(); ++i) {
    const uvmm::Pfn pfn = free_pfns_.front();
    free_pfns_.pop_front();
    PostRxSlot(pfn, /*kick=*/false);
  }
  if (xenbus_.state() == XenbusState::kInit) {
    xenbus_.OnConnected();
  } else {
    xenbus_.OnReconnected();
  }
  return Err::kNone;
}

void NetFront::PostRxSlot(uvmm::Pfn pfn, bool kick) {
  ukvm::Result<uint32_t> ref =
      mode_ == RxMode::kPageFlip
          ? hv_.HcGrantTransferSlot(guest_, backend_, pfn)
          : hv_.HcGrantAccess(guest_, backend_, pfn, /*writable=*/true);
  if (!ref.ok()) {
    UKVM_WARN("netfront: cannot post rx slot: %s", ukvm::ErrName(ref.error()));
    return;
  }
  chan_->rx_ring->PushRequest(NetRxReq{*ref, pfn});
  rx_posted_.push_back(NetRxReq{*ref, pfn});
  if (kick) {
    (void)hv_.HcEvtchnSend(guest_, chan_->front_rx_port);
  }
}

Err NetFront::Send(std::span<const uint8_t> packet) {
  if (chan_ == nullptr) {
    // Never connected: would block. Connected once: OnBackendDead dropped
    // the channel, so report the death (Connect brings it back).
    return backend_.valid() ? Err::kDead : Err::kWouldBlock;
  }
  if (packet.size() > machine_.memory().page_size() || packet.size() > mtu()) {
    return Err::kInvalidArgument;
  }
  if (!hv_.DomainAlive(backend_)) {
    return Err::kDead;
  }
  if (free_pfns_.empty()) {
    return Err::kBusy;
  }
  // The tx request is born here; the staging copy, the grant, the ring
  // stash, and the kick all become its children via the ambient scope.
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_tx_name_, guest_);
  uvmm::Domain* dom = hv_.FindDomain(guest_);
  const uvmm::Pfn pfn = free_pfns_.front();
  free_pfns_.pop_front();

  // Guest kernel copies the payload into a DMA-able page.
  auto mfn = dom->MfnOf(pfn);
  assert(mfn.ok());
  machine_.memory().Write(machine_.memory().FrameBase(*mfn), packet);
  machine_.ChargeCopy(packet.size());
  RaceFrameAccess(machine_, guest_, *mfn, /*write=*/true, "net.tx.payload");

  // Persistent mode recycles the staging page's access grant: after the
  // first send of a given pfn, steady state issues no grant hypercalls here.
  auto grant = grants_.Grant(pfn, /*writable=*/false);
  if (!grant.ok()) {
    free_pfns_.push_back(pfn);
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return grant.error();
  }
  const uint32_t gref = *grant;
  tx_in_flight_[gref] = TxGrant{pfn, machine_.Now(), req_scope.ref()};
  chan_->tx_ring->PushRequest(NetTxReq{gref, static_cast<uint32_t>(packet.size())});
  const Err err = hv_.HcEvtchnSend(guest_, chan_->front_tx_port);
  if (err == Err::kNone) {
    ++tx_sent_;
  }
  return err;
}

void NetFront::OnTxResponse() {
  if (chan_ == nullptr) {
    return;  // late upcall after OnBackendDead dropped the channel
  }
  while (auto resp = chan_->tx_ring->PopResponse()) {
    grants_.Release(resp->gref);
    auto it = tx_in_flight_.find(resp->gref);
    if (it != tx_in_flight_.end()) {
      machine_.tracer().RecordLatency(hist_tx_e2e_, machine_.Now() - it->second.t0);
      free_pfns_.push_back(it->second.pfn);
      machine_.reqtrace().EndRequest(it->second.trace);
      tx_in_flight_.erase(it);
    }
  }
}

void NetFront::OnRxResponse() {
  if (chan_ == nullptr) {
    return;  // late upcall after OnBackendDead dropped the channel
  }
  uvmm::Domain* dom = hv_.FindDomain(guest_);
  if (io_batch_ <= 1) {
    while (auto resp = chan_->rx_ring->PopResponse()) {
      const ukvm::ReqTraceRef req_ref = chan_->rx_ring->popped_traces().empty()
                                            ? ukvm::ReqTraceRef{}
                                            : chan_->rx_ring->popped_traces()[0];
      ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
      ForgetPostedRxSlot(resp->pfn);
      if (DeliverRxPayload(dom, resp->pfn, resp->len, resp->status)) {
        machine_.reqtrace().EndRequest(req_ref);
      } else {
        machine_.reqtrace().AbandonRequest(req_ref);
      }
      if (mode_ == RxMode::kGrantCopy) {
        if (persistent_) {
          // The writable slot grant survives the backend's copy; reuse it.
          chan_->rx_ring->PushRequest(NetRxReq{resp->ref, resp->pfn});
          rx_posted_.push_back(NetRxReq{resp->ref, resp->pfn});
          continue;
        }
        (void)hv_.HcGrantEnd(guest_, resp->ref);
      }
      // Re-advertise the slot (the flip consumed the old grant entirely).
      PostRxSlot(resp->pfn, /*kick=*/false);
    }
    return;
  }

  // Batched path: drain the whole ring in one pass, then re-advertise every
  // consumed slot under a single multicall (flip mode needs fresh transfer
  // grants; copy mode ends+re-grants, or reuses the grant when persistent).
  auto resps = chan_->rx_ring->PopResponses(chan_->rx_ring->pending_responses());
  const std::vector<ukvm::ReqTraceRef> popped = chan_->rx_ring->popped_traces();
  std::vector<uvmm::MulticallOp> ops;
  std::vector<NetRxReq> reqs;
  for (size_t i = 0; i < resps.size(); ++i) {
    const NetRxResp& resp = resps[i];
    const ukvm::ReqTraceRef req_ref = i < popped.size() ? popped[i] : ukvm::ReqTraceRef{};
    ukvm::ReqAdoptScope req_scope(machine_.reqtrace(), req_ref);
    ForgetPostedRxSlot(resp.pfn);
    if (DeliverRxPayload(dom, resp.pfn, resp.len, resp.status)) {
      machine_.reqtrace().EndRequest(req_ref);
    } else {
      machine_.reqtrace().AbandonRequest(req_ref);
    }
    if (mode_ == RxMode::kPageFlip) {
      uvmm::MulticallOp op;
      op.kind = uvmm::MulticallOp::Kind::kGrantTransferSlot;
      op.peer = backend_;
      op.pfn = resp.pfn;
      ops.push_back(op);
    } else if (persistent_) {
      reqs.push_back(NetRxReq{resp.ref, resp.pfn});
    } else {
      uvmm::MulticallOp end;
      end.kind = uvmm::MulticallOp::Kind::kGrantEnd;
      end.ref = resp.ref;
      ops.push_back(end);
      uvmm::MulticallOp acc;
      acc.kind = uvmm::MulticallOp::Kind::kGrantAccess;
      acc.peer = backend_;
      acc.pfn = resp.pfn;
      acc.flag = true;  // writable
      ops.push_back(acc);
    }
  }
  if (!ops.empty()) {
    auto out = hv_.HcMulticall(guest_, ops);
    for (size_t j = 0; j < out.results.size(); ++j) {
      if (ops[j].kind == uvmm::MulticallOp::Kind::kGrantEnd) {
        continue;
      }
      if (out.results[j].status == Err::kNone) {
        reqs.push_back(NetRxReq{static_cast<uint32_t>(out.results[j].value), ops[j].pfn});
      } else {
        UKVM_WARN("netfront: cannot post rx slot: %s", ukvm::ErrName(out.results[j].status));
      }
    }
  }
  if (!reqs.empty()) {
    chan_->rx_ring->PushRequests(std::span<const NetRxReq>(reqs));
    rx_posted_.insert(rx_posted_.end(), reqs.begin(), reqs.end());
  }
}

}  // namespace ustack
