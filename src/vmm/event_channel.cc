#include "src/vmm/event_channel.h"

#include <algorithm>
#include <cassert>

#include "src/hw/machine.h"

namespace uvmm {

using ukvm::DomainId;
using ukvm::Err;
using ukvm::Result;

EventChannelTable::EventChannelTable(DeliverFn deliver, hwsim::Machine& machine)
    : deliver_(std::move(deliver)),
      machine_(machine),
      trace_send_name_(machine.tracer().InternName("evtchn.send")) {
  assert(deliver_);
}

EventChannelTable::Port* EventChannelTable::FindPort(DomainId domain, uint32_t port) {
  auto it = ports_.find(domain);
  if (it == ports_.end() || port >= it->second.size() || !it->second[port].allocated) {
    return nullptr;
  }
  return &it->second[port];
}

Result<uint32_t> EventChannelTable::AllocUnbound(DomainId owner, DomainId remote) {
  auto& vec = ports_[owner];
  const auto port = static_cast<uint32_t>(vec.size());
  Port p;
  p.allocated = true;
  p.connected = false;
  p.remote_dom = remote;
  vec.push_back(p);
  return port;
}

Result<uint32_t> EventChannelTable::BindInterdomain(DomainId caller, DomainId remote_dom,
                                                    uint32_t remote_port) {
  Port* remote = FindPort(remote_dom, remote_port);
  if (remote == nullptr) {
    return Err::kNotFound;
  }
  if (remote->connected) {
    return Err::kBusy;
  }
  if (remote->remote_dom != caller) {
    return Err::kPermissionDenied;  // the unbound port was reserved for someone else
  }
  auto& vec = ports_[caller];
  const auto port = static_cast<uint32_t>(vec.size());
  Port local;
  local.allocated = true;
  local.connected = true;
  local.remote_dom = remote_dom;
  local.remote_port = remote_port;
  vec.push_back(local);
  remote->connected = true;
  remote->remote_port = port;
  return port;
}

Err EventChannelTable::Send(DomainId caller, uint32_t port) {
  Port* local = FindPort(caller, port);
  if (local == nullptr) {
    return Err::kBadHandle;
  }
  if (!local->connected) {
    return Err::kWouldBlock;
  }
  Port* remote = FindPort(local->remote_dom, local->remote_port);
  if (remote == nullptr) {
    return Err::kDead;  // peer domain was destroyed
  }
  ++sends_;
  if (hwsim::Observer* race = machine_.race_observer()) {
    // Release half of send->upcall, fired on *every* successful Send — the
    // pending bit latches, so the one eventual upcall acquires the joined
    // history of the whole coalesced burst.
    race->Release(caller, hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kEvtchn,
                                             local->remote_dom.value(), local->remote_port));
  }
  machine_.tracer().Instant(trace_send_name_, local->remote_dom, local->remote_port,
                            remote->pending ? 1 : 0);
  // E22: latch the sending request on the channel until the upcall
  // delivers (DeliverUpcall adopts it).
  machine_.reqtrace().ChannelStash(local->remote_dom, local->remote_port, remote->pending);
  if (remote->pending) {
    // Already signalled and not yet consumed: the bit latches this Send
    // too. One upcall (on consume/unmask) covers the whole burst.
    ++coalesced_sends_;
    return Err::kNone;
  }
  remote->pending = true;
  if (remote->masked) {
    return Err::kNone;  // delivered when the owner unmasks
  }
  deliver_(local->remote_dom, local->remote_port);
  return Err::kNone;
}

Err EventChannelTable::Close(DomainId caller, uint32_t port) {
  Port* local = FindPort(caller, port);
  if (local == nullptr) {
    return Err::kBadHandle;
  }
  if (local->connected) {
    if (Port* remote = FindPort(local->remote_dom, local->remote_port)) {
      remote->connected = false;
    }
  }
  *local = Port{};
  return Err::kNone;
}

Err EventChannelTable::SetMask(DomainId owner, uint32_t port, bool masked) {
  Port* p = FindPort(owner, port);
  if (p == nullptr) {
    return Err::kBadHandle;
  }
  const bool was_masked = p->masked;
  p->masked = masked;
  if (was_masked && !masked && p->pending) {
    // Flush: everything latched while masked becomes one upcall.
    deliver_(owner, port);
  }
  return Err::kNone;
}

Result<bool> EventChannelTable::ConsumePending(DomainId owner, uint32_t port) {
  Port* p = FindPort(owner, port);
  if (p == nullptr) {
    return Err::kBadHandle;
  }
  const bool was = p->pending;
  p->pending = false;
  return was;
}

void EventChannelTable::CloseAllOf(DomainId domain) {
  auto it = ports_.find(domain);
  if (it != ports_.end()) {
    for (uint32_t port = 0; port < it->second.size(); ++port) {
      if (it->second[port].allocated) {
        (void)Close(domain, port);
      }
    }
    ports_.erase(domain);
  }
  // Free the surviving peers' ends too: a channel to a dead domain can
  // never carry another event, so its other end is reclaimed with it.
  for (auto& [dom, vec] : ports_) {
    for (Port& p : vec) {
      if (p.allocated && p.remote_dom == domain) {
        p = Port{};
      }
    }
  }
}

std::vector<DomainId> EventChannelTable::PeersOf(DomainId domain) const {
  std::vector<DomainId> peers;
  auto it = ports_.find(domain);
  if (it == ports_.end()) {
    return peers;
  }
  for (const Port& p : it->second) {
    if (!p.allocated || !p.connected) {
      continue;
    }
    if (std::find(peers.begin(), peers.end(), p.remote_dom) == peers.end()) {
      peers.push_back(p.remote_dom);
    }
  }
  return peers;
}

void EventChannelTable::ForEachChannel(const std::function<void(const ChannelView&)>& fn) const {
  for (const auto& [dom, vec] : ports_) {
    for (uint32_t port = 0; port < vec.size(); ++port) {
      const Port& p = vec[port];
      if (p.allocated) {
        fn(ChannelView{dom, port, p.connected, p.remote_dom, p.remote_port, p.pending, p.masked});
      }
    }
  }
}

size_t EventChannelTable::ports_of(DomainId domain) const {
  auto it = ports_.find(domain);
  if (it == ports_.end()) {
    return 0;
  }
  size_t n = 0;
  for (const Port& p : it->second) {
    n += p.allocated ? 1 : 0;
  }
  return n;
}

}  // namespace uvmm
