#include "src/core/reqtrace.h"

#include <algorithm>
#include <utility>

#include "src/core/crossings.h"

namespace ukvm {

namespace {

// Per-request node cap: runaway instrumentation degrades to dropped leaves
// (counted) instead of unbounded memory.
constexpr size_t kMaxNodesPerRequest = 4096;

uint64_t Clamp(uint64_t v, uint64_t lo, uint64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

uint64_t ChannelKey(DomainId target, uint32_t port) {
  return (uint64_t{target.value()} << 32) | port;
}

}  // namespace

const char* ReqNodeKindName(ReqNodeKind kind) {
  switch (kind) {
    case ReqNodeKind::kOrigin:
      return "origin";
    case ReqNodeKind::kQueue:
      return "queue";
    case ReqNodeKind::kCrossing:
      return "crossing";
    case ReqNodeKind::kCopy:
      return "copy";
    case ReqNodeKind::kDevice:
      return "device";
    case ReqNodeKind::kShootdown:
      return "shootdown";
    case ReqNodeKind::kRecovery:
      return "recovery";
    case ReqNodeKind::kCompute:
      return "compute";
    case ReqNodeKind::kKindCount:
      break;
  }
  return "?";
}

RequestTrace::RequestTrace() {
  names_.emplace_back();  // id 0: the reserved empty name
  name_ids_[""] = 0;
  name_ring_wait_ = InternName("ring.wait");
  name_upcall_ = InternName("evtchn.upcall");
  name_copy_ = InternName("copy");
  name_shootdown_ = InternName("tlb.shootdown");
}

void RequestTrace::Enable(const ReqTraceConfig& config) {
  config_ = config;
  enabled_ = true;
  next_trace_id_ = 1;
  live_.clear();
  current_ = ReqTraceRef{};
  rings_.clear();
  channels_.clear();
  channels_seen_.clear();
  e2e_.Reset();
  for (LogHistogram& h : critpath_) {
    h.Reset();
  }
  slowest_.clear();
  started_ = completed_ = fully_parented_ = abandoned_ = 0;
  orphaned_handoffs_ = dropped_nodes_ = 0;
  drop_next_ring_stash_ = drop_next_channel_adopt_ = false;
}

uint32_t RequestTrace::InternName(std::string_view name) {
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_[names_.back()] = id;
  return id;
}

RequestTrace::LiveRequest* RequestTrace::Find(ReqTraceRef ref) {
  if (!ref.valid()) {
    return nullptr;
  }
  const auto it = live_.find(ref.trace);
  return it == live_.end() ? nullptr : &it->second;
}

uint32_t RequestTrace::Append(LiveRequest& req, ReqNode node) {
  if (req.nodes.size() >= kMaxNodesPerRequest) {
    ++req.dropped_nodes;
    return 0;  // degrade: further children hang off the root
  }
  req.nodes.push_back(node);
  return static_cast<uint32_t>(req.nodes.size() - 1);
}

ReqTraceRef RequestTrace::BeginRequest(uint32_t name, DomainId domain) {
  if (!enabled_) {
    return ReqTraceRef{};
  }
  const uint32_t id = next_trace_id_++;
  LiveRequest req;
  ReqNode root;
  root.name = name;
  root.kind = ReqNodeKind::kOrigin;
  root.domain = domain;
  root.t0 = Now();
  req.nodes.push_back(root);
  live_.emplace(id, std::move(req));
  ++started_;
  return ReqTraceRef{id, 0};
}

ReqTraceRef RequestTrace::AddLeafTo(ReqTraceRef parent, uint32_t name, ReqNodeKind kind,
                                    DomainId domain, uint64_t t0, uint64_t t1) {
  if (!enabled_) {
    return ReqTraceRef{};
  }
  LiveRequest* req = Find(parent);
  if (req == nullptr) {
    return ReqTraceRef{};
  }
  ReqNode node;
  node.name = name;
  node.kind = kind;
  node.domain = domain;
  node.t0 = t0;
  node.t1 = t1 < t0 ? t0 : t1;
  node.parent = parent.node;
  return ReqTraceRef{parent.trace, Append(*req, node)};
}

ReqTraceRef RequestTrace::AddLeaf(uint32_t name, ReqNodeKind kind, DomainId domain, uint64_t t0,
                                  uint64_t t1) {
  return AddLeafTo(current_, name, kind, domain, t0, t1);
}

void RequestTrace::AttachSharedSpan(const std::vector<ReqTraceRef>& refs, uint32_t name,
                                    ReqNodeKind kind, DomainId domain, uint64_t t0, uint64_t t1) {
  if (!enabled_) {
    return;
  }
  std::vector<uint32_t> done;
  for (const ReqTraceRef& ref : refs) {
    if (!ref.valid() || std::find(done.begin(), done.end(), ref.trace) != done.end()) {
      continue;
    }
    done.push_back(ref.trace);
    (void)AddLeafTo(ref, name, kind, domain, t0, t1);
  }
}

void RequestTrace::CopyLeaf(DomainId domain, uint64_t t0, uint64_t t1, uint64_t bytes) {
  (void)bytes;
  if (!enabled_ || !current_.valid()) {
    return;
  }
  (void)AddLeaf(name_copy_, ReqNodeKind::kCopy, domain, t0, t1);
}

void RequestTrace::ShootdownLeaf(DomainId domain, uint64_t t0, uint64_t t1) {
  if (!enabled_ || !current_.valid()) {
    return;
  }
  (void)AddLeaf(name_shootdown_, ReqNodeKind::kShootdown, domain, t0, t1);
}

void RequestTrace::RingStash(uint64_t ring, RingSide side, uint64_t index) {
  RingStashRef(ring, side, index, current_);
}

void RequestTrace::RingStashRef(uint64_t ring, RingSide side, uint64_t index, ReqTraceRef ref) {
  if (!enabled_) {
    return;
  }
  if (drop_next_ring_stash_) {
    drop_next_ring_stash_ = false;
    return;
  }
  RingTable& table = rings_[ring];
  const auto s = static_cast<size_t>(side);
  if (table.first[s] == kReqOpen) {
    table.first[s] = index;
  }
  Stash stash;
  stash.trace = ref.valid() ? ref.trace : 0;
  stash.node = ref.node;
  stash.t0 = Now();
  if (LiveRequest* req = Find(ref)) {
    ++req->pending_handoffs;
  } else {
    stash.trace = 0;
  }
  table.slots[s][index] = stash;
}

ReqTraceRef RequestTrace::RingConsume(uint64_t ring, RingSide side, uint64_t index,
                                      DomainId domain) {
  if (!enabled_) {
    return ReqTraceRef{};
  }
  const auto rit = rings_.find(ring);
  if (rit == rings_.end()) {
    return ReqTraceRef{};  // ring never stashed: armed after traffic started
  }
  RingTable& table = rit->second;
  const auto s = static_cast<size_t>(side);
  const auto it = table.slots[s].find(index);
  if (it == table.slots[s].end()) {
    if (table.first[s] != kReqOpen && index >= table.first[s]) {
      // Inside the densely stashed window: a propagation point was skipped.
      ++orphaned_handoffs_;
    }
    return ReqTraceRef{};
  }
  const Stash stash = it->second;
  table.slots[s].erase(it);
  if (stash.trace == 0) {
    return ReqTraceRef{};
  }
  const ReqTraceRef parent{stash.trace, stash.node};
  LiveRequest* req = Find(parent);
  if (req == nullptr) {
    return ReqTraceRef{};  // the request already finished elsewhere
  }
  if (req->pending_handoffs > 0) {
    --req->pending_handoffs;
  }
  ReqNode node;
  node.name = name_ring_wait_;
  node.kind = ReqNodeKind::kQueue;
  node.domain = domain;
  node.t0 = stash.t0;
  node.t1 = Now();
  node.parent = stash.node;
  return ReqTraceRef{stash.trace, Append(*req, node)};
}

void RequestTrace::RingDropped(uint64_t ring) {
  if (!enabled_) {
    return;
  }
  const auto rit = rings_.find(ring);
  if (rit == rings_.end()) {
    return;
  }
  for (auto& side : rit->second.slots) {
    for (const auto& [index, stash] : side) {
      UnstashLive(stash);
    }
  }
  rings_.erase(rit);
}

void RequestTrace::UnstashLive(const Stash& stash) {
  LiveRequest* req = Find(ReqTraceRef{stash.trace, stash.node});
  if (req != nullptr && req->pending_handoffs > 0) {
    --req->pending_handoffs;
  }
}

void RequestTrace::ChannelStash(DomainId target, uint32_t port, bool coalesced) {
  if (!enabled_) {
    return;
  }
  const uint64_t key = ChannelKey(target, port);
  channels_seen_.insert(key);
  const auto it = channels_.find(key);
  if (coalesced && it != channels_.end()) {
    return;  // latched: the first sender owns the edge
  }
  if (it != channels_.end()) {
    // A fresh send over an unconsumed stash: the port was torn down and
    // reused (crash reclamation). The old edge is moot, not a bug.
    UnstashLive(it->second);
  }
  Stash stash;
  stash.trace = current_.valid() ? current_.trace : 0;
  stash.node = current_.node;
  stash.t0 = Now();
  if (LiveRequest* req = Find(current_)) {
    ++req->pending_handoffs;
  } else {
    stash.trace = 0;
  }
  channels_[key] = stash;
}

ReqTraceRef RequestTrace::ChannelAdopt(DomainId target, uint32_t port, DomainId domain) {
  if (!enabled_) {
    return ReqTraceRef{};
  }
  const uint64_t key = ChannelKey(target, port);
  const auto it = channels_.find(key);
  if (it == channels_.end()) {
    if (channels_seen_.count(key) != 0) {
      ++orphaned_handoffs_;  // a send stashed here before and the id is gone
    }
    return ReqTraceRef{};  // IRQ-bound port: upcalls without sends are normal
  }
  const Stash stash = it->second;
  channels_.erase(it);
  if (drop_next_channel_adopt_) {
    drop_next_channel_adopt_ = false;
    return ReqTraceRef{};  // the edge is lost; the sender stays in debt
  }
  if (stash.trace == 0) {
    return ReqTraceRef{};
  }
  const ReqTraceRef parent{stash.trace, stash.node};
  LiveRequest* req = Find(parent);
  if (req == nullptr) {
    return ReqTraceRef{};
  }
  if (req->pending_handoffs > 0) {
    --req->pending_handoffs;
  }
  ReqNode node;
  node.name = name_upcall_;
  node.kind = ReqNodeKind::kCrossing;
  node.domain = domain;
  node.t0 = stash.t0;
  node.t1 = Now();
  node.parent = stash.node;
  return ReqTraceRef{stash.trace, Append(*req, node)};
}

void RequestTrace::ForgiveHandoffs(ReqTraceRef ref) {
  if (LiveRequest* req = Find(ref)) {
    req->pending_handoffs = 0;
    req->damaged = false;
  }
}

void RequestTrace::OnCrossing(const CrossingEvent& event, const CrossingLedger& ledger) {
  if (!enabled_ || !current_.valid()) {
    return;
  }
  if (mech_name_ids_.size() < ledger.mechanism_count()) {
    mech_name_ids_.resize(ledger.mechanism_count(), 0);
  }
  uint32_t& name = mech_name_ids_[event.mechanism];
  if (name == 0) {
    name = InternName("xing." + ledger.MechanismName(event.mechanism));
  }
  const uint64_t t1 = event.time;
  const uint64_t t0 = t1 - std::min(event.cycles, t1);
  (void)AddLeaf(name, ReqNodeKind::kCrossing, event.from, t0, t1);
}

void RequestTrace::EndRequest(ReqTraceRef ref) {
  if (!ref.valid()) {
    return;
  }
  const auto it = live_.find(ref.trace);
  if (it == live_.end()) {
    return;
  }
  LiveRequest req = std::move(it->second);
  live_.erase(it);
  Finish(ref.trace, std::move(req), Now());
}

void RequestTrace::AbandonRequest(ReqTraceRef ref) {
  if (!ref.valid()) {
    return;
  }
  const auto it = live_.find(ref.trace);
  if (it == live_.end()) {
    return;
  }
  dropped_nodes_ += it->second.dropped_nodes;
  live_.erase(it);
  ++abandoned_;
}

void RequestTrace::Finish(uint32_t id, LiveRequest&& req, uint64_t end) {
  std::vector<ReqNode>& nodes = req.nodes;
  const uint64_t t0 = nodes.front().t0;
  if (end < t0) {
    end = t0;
  }
  for (ReqNode& node : nodes) {
    if (node.t1 == kReqOpen) {
      node.t1 = end;
    }
  }

  ++completed_;
  const bool parented = !req.damaged && req.pending_handoffs == 0;
  if (parented) {
    ++fully_parented_;
  }
  dropped_nodes_ += req.dropped_nodes;
  e2e_.Record(end - t0);

  // Critical path: partition [t0, end] into elementary intervals at every
  // node boundary and attribute each interval to the deepest active node
  // (ties to the latest-created). Depths are well-defined because parents
  // are always created before children.
  const size_t n = nodes.size();
  std::vector<uint32_t> depth(n, 0);
  std::vector<uint64_t> lo(n);
  std::vector<uint64_t> hi(n);
  std::vector<uint64_t> cuts;
  cuts.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && nodes[i].parent != kReqNoParent) {
      depth[i] = depth[nodes[i].parent] + 1;
    }
    lo[i] = Clamp(nodes[i].t0, t0, end);
    hi[i] = Clamp(nodes[i].t1, t0, end);
    cuts.push_back(lo[i]);
    cuts.push_back(hi[i]);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::array<uint64_t, kReqNodeKindCount> breakdown{};
  std::vector<ReqSegment> segments;
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const uint64_t a = cuts[c];
    const uint64_t b = cuts[c + 1];
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (lo[i] <= a && hi[i] >= b &&
          (depth[i] > depth[best] || (depth[i] == depth[best] && i > best))) {
        best = i;
      }
    }
    ReqNodeKind bucket = nodes[best].kind;
    if (bucket == ReqNodeKind::kOrigin) {
      bucket = ReqNodeKind::kQueue;  // origin-only time: the request waited
    }
    breakdown[static_cast<size_t>(bucket)] += b - a;
    if (!segments.empty() && segments.back().node == best && segments.back().t1 == a) {
      segments.back().t1 = b;
    } else {
      segments.push_back(ReqSegment{static_cast<uint32_t>(best), a, b});
    }
  }
  for (size_t k = 0; k < kReqNodeKindCount; ++k) {
    if (breakdown[k] > 0) {
      critpath_[k].Record(breakdown[k]);
    }
  }

  if (config_.k_slowest == 0) {
    return;
  }
  const uint64_t e2e = end - t0;
  const auto slower = [](const CompletedRequest& x, uint64_t x_e2e, uint32_t x_id) {
    const uint64_t y = x.t1 - x.t0;
    return y > x_e2e || (y == x_e2e && x.id < x_id);
  };
  auto pos = slowest_.begin();
  while (pos != slowest_.end() && slower(*pos, e2e, id)) {
    ++pos;
  }
  if (pos == slowest_.end() && slowest_.size() >= config_.k_slowest) {
    return;
  }
  CompletedRequest cr;
  cr.id = id;
  cr.t0 = t0;
  cr.t1 = end;
  cr.nodes = std::move(nodes);
  cr.critical_path = std::move(segments);
  cr.breakdown = breakdown;
  cr.parented = parented;
  slowest_.insert(pos, std::move(cr));
  if (slowest_.size() > config_.k_slowest) {
    slowest_.pop_back();
  }
}

void RequestTrace::ForEachHistogram(
    const std::function<void(const std::string&, const LogHistogram&)>& fn) const {
  std::vector<std::pair<std::string, const LogHistogram*>> rows;
  for (size_t k = 0; k < kReqNodeKindCount; ++k) {
    if (critpath_[k].count() > 0) {
      rows.emplace_back(std::string("req.critpath.") + ReqNodeKindName(static_cast<ReqNodeKind>(k)),
                        &critpath_[k]);
    }
  }
  rows.emplace_back("req.e2e", &e2e_);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, hist] : rows) {
    fn(name, *hist);
  }
}

ReqTraceLint RequestTrace::Lint() const {
  ReqTraceLint lint;
  lint.completed = completed_;
  lint.fully_parented = fully_parented_;
  lint.orphaned_handoffs = orphaned_handoffs_;
  lint.abandoned = abandoned_;
  lint.open = live_.size();
  lint.dropped_nodes = dropped_nodes_;
  return lint;
}

std::string RequestTrace::SlowestReport() const {
  std::string out = "slowest requests (";
  out += std::to_string(slowest_.size());
  out += " retained of ";
  out += std::to_string(completed_);
  out += " completed):\n";
  for (const CompletedRequest& cr : slowest_) {
    out += "  #";
    out += std::to_string(cr.id);
    out += " ";
    out += Name(cr.nodes.front().name);
    out += " dom";
    out += std::to_string(cr.nodes.front().domain.value());
    out += " e2e=";
    out += std::to_string(cr.t1 - cr.t0);
    out += " parented=";
    out += cr.parented ? "yes" : "NO";
    out += " breakdown:";
    for (size_t k = 0; k < kReqNodeKindCount; ++k) {
      if (cr.breakdown[k] > 0) {
        out += " ";
        out += ReqNodeKindName(static_cast<ReqNodeKind>(k));
        out += "=";
        out += std::to_string(cr.breakdown[k]);
      }
    }
    out += "\n    critical path:";
    for (const ReqSegment& seg : cr.critical_path) {
      const ReqNode& node = cr.nodes[seg.node];
      out += " ";
      out += Name(node.name);
      out += "[";
      out += std::to_string(seg.t1 - seg.t0);
      out += "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace ukvm
