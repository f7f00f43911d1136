#include "src/check/race.h"

#include <algorithm>
#include <sstream>

#include "src/core/crossings.h"

namespace ucheck {

const char* RaceRuleName(RaceRule rule) {
  switch (rule) {
    case RaceRule::kUnsyncedSharedAccess:
      return "kUnsyncedSharedAccess";
    case RaceRule::kRingReadBeforePublish:
      return "kRingReadBeforePublish";
    case RaceRule::kRuleCount:
      break;
  }
  return "kUnknownRaceRule";
}

size_t RaceDetector::CtxOf(ukvm::DomainId ctx) {
  if (!ctx.valid()) {
    return kNoCtx;
  }
  auto [it, inserted] = ctx_index_.try_emplace(ctx.value(), clocks_.size());
  if (inserted) {
    size_t c = it->second;
    ctx_dom_.push_back(ctx.value());
    clocks_.emplace_back(c + 1, 0);
    clocks_[c][c] = 1;  // epoch 0 is reserved for "never wrote"
    dead_.push_back(false);
  }
  return it->second;
}

size_t RaceDetector::FindCtx(ukvm::DomainId ctx) const {
  if (!ctx.valid()) {
    return kNoCtx;
  }
  auto it = ctx_index_.find(ctx.value());
  return it == ctx_index_.end() ? kNoCtx : it->second;
}

void RaceDetector::JoinInto(std::vector<uint64_t>& dst, const std::vector<uint64_t>& src) {
  if (src.size() > dst.size()) {
    dst.resize(src.size(), 0);
  }
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

bool RaceDetector::Ordered(size_t c, size_t prev, uint64_t epoch) const {
  if (prev == c) {
    return true;  // program order within one context
  }
  if (dead_[prev]) {
    // The context died and its shared mappings were force-revoked (with a
    // shootdown); nothing it did can race with accesses after its death.
    return true;
  }
  return At(clocks_[c], prev) >= epoch;
}

void RaceDetector::Release(ukvm::DomainId ctx, uint64_t key) {
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return;
  }
  ++stats_.releases;
  JoinInto(edges_[key], clocks_[c]);
  ++clocks_[c][c];  // FastTrack: the epoch advances at release points only
}

void RaceDetector::Acquire(ukvm::DomainId ctx, uint64_t key) {
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return;
  }
  ++stats_.acquires;
  auto it = edges_.find(key);
  if (it == edges_.end()) {
    return;  // acquire of a never-released key orders nothing
  }
  JoinInto(clocks_[c], it->second);
}

void RaceDetector::SharedWrite(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                               const char* what) {
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return;
  }
  ++stats_.shared_accesses;
  Cell& cell = shadow_[object][offset];
  if (cell.writer != kNoCtx && !Ordered(c, cell.writer, cell.write_epoch)) {
    std::ostringstream os;
    os << "write/write on " << DescribeObject(object, offset) << ": "
       << CtxName(c) << " '" << (what ? what : "?") << "' vs " << CtxName(cell.writer)
       << " '" << (cell.write_what ? cell.write_what : "?") << "' with no happens-before edge";
    RecordViolation(RaceRule::kUnsyncedSharedAccess, os.str());
  }
  for (const auto& [rc, read] : cell.reads) {
    if (!Ordered(c, rc, read.epoch)) {
      std::ostringstream os;
      os << "read/write on " << DescribeObject(object, offset) << ": write by "
         << CtxName(c) << " '" << (what ? what : "?") << "' unordered vs read by "
         << CtxName(rc) << " '" << (read.what ? read.what : "?") << "'";
      RecordViolation(RaceRule::kUnsyncedSharedAccess, os.str());
    }
  }
  cell.writer = c;
  cell.write_epoch = OwnEpoch(c);
  cell.write_what = what;
  cell.reads.clear();
}

void RaceDetector::SharedRead(ukvm::DomainId ctx, uint64_t object, uint64_t offset,
                              const char* what) {
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return;
  }
  ++stats_.shared_accesses;
  Cell& cell = shadow_[object][offset];
  if (cell.writer != kNoCtx && !Ordered(c, cell.writer, cell.write_epoch)) {
    std::ostringstream os;
    os << "write/read on " << DescribeObject(object, offset) << ": read by "
       << CtxName(c) << " '" << (what ? what : "?") << "' unordered vs write by "
       << CtxName(cell.writer) << " '" << (cell.write_what ? cell.write_what : "?") << "'";
    RecordViolation(RaceRule::kUnsyncedSharedAccess, os.str());
  }
  ReadRecord& read = cell.reads[c];
  read.epoch = OwnEpoch(c);
  read.what = what;
}

void RaceDetector::RingPublish(ukvm::DomainId ctx, uint64_t key, uint64_t count) {
  uint64_t& published = published_[key];
  published = std::max(published, count);
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return;  // contextless baseline publish: ordered history, no HB edge
  }
  ++stats_.ring_publishes;
  // The index store is the release half of the ring's publish protocol.
  JoinInto(edges_[key], clocks_[c]);
  ++clocks_[c][c];
  ++stats_.releases;
}

bool RaceDetector::RingObserve(ukvm::DomainId ctx, uint64_t key, uint64_t index) {
  size_t c = CtxOf(ctx);
  if (c == kNoCtx) {
    return true;  // untracked context: don't second-guess the caller
  }
  ++stats_.ring_observes;
  auto it = published_.find(key);
  uint64_t published = it == published_.end() ? 0 : it->second;
  if (index >= published) {
    std::ostringstream os;
    os << CtxName(c) << " read " << DescribeObject(key, index) << " at index " << index
       << " but only " << published << " entries are published";
    RecordViolation(RaceRule::kRingReadBeforePublish, os.str());
    return false;  // caller skips the slot read: one bug, one rule
  }
  auto edge = edges_.find(key);
  if (edge != edges_.end()) {
    JoinInto(clocks_[c], edge->second);
  }
  ++stats_.acquires;
  return true;
}

void RaceDetector::ContextDead(ukvm::DomainId ctx) {
  size_t c = FindCtx(ctx);
  if (c != kNoCtx) {
    dead_[c] = true;
  }
}

void RaceDetector::OnCrossing(const ukvm::CrossingEvent& event) {
  // Every hypercall/return crossing touches the VMM hub domain; treating
  // those as edges would totally order all guests through the hub and mask
  // real races, so hub-adjacent crossings are skipped (see SetHubDomain).
  if (!event.from.valid() || !event.to.valid() || event.from == event.to ||
      event.from == hub_ || event.to == hub_) {
    return;
  }
  uint64_t key =
      hwsim::RaceEdgeKey(hwsim::RaceEdgeKind::kIpc, event.from.value(), event.to.value());
  Release(event.from, key);
  Acquire(event.to, key);
}

void RaceDetector::RecordViolation(RaceRule rule, std::string detail) {
  ++rule_counts_[static_cast<size_t>(rule)];
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(RaceViolation{rule, machine_.Now(), std::move(detail)});
  }
}

std::string RaceDetector::DescribeObject(uint64_t object, uint64_t offset) const {
  auto kind = static_cast<hwsim::RaceEdgeKind>(object >> 56);
  uint64_t a = (object >> 28) & 0xFFF'FFFFull;
  uint64_t b = object & 0xFFF'FFFFull;
  std::ostringstream os;
  switch (kind) {
    case hwsim::RaceEdgeKind::kRingReq:
      os << "ring#" << a << ".req[" << offset << "]";
      break;
    case hwsim::RaceEdgeKind::kRingResp:
      os << "ring#" << a << ".rsp[" << offset << "]";
      break;
    case hwsim::RaceEdgeKind::kFrame:
      os << "frame 0x" << std::hex << a << std::dec << " (owner dom " << b << ")";
      break;
    default:
      os << "object 0x" << std::hex << object << std::dec << "+" << offset;
      break;
  }
  return os.str();
}

std::string RaceDetector::CtxName(size_t c) const {
  uint32_t dom = ctx_dom_[c];
  std::ostringstream os;
  if (ukvm::DomainId{dom} == ukvm::kHardwareDomain) {
    os << "dom<hw>";
  } else {
    os << "dom" << dom;
  }
  return os.str();
}

size_t RaceDetector::violation_count() const {
  size_t total = 0;
  for (uint64_t count : rule_counts_) {
    total += count;
  }
  return total;
}

std::vector<std::string> RaceDetector::ViolationReports() const {
  std::vector<std::string> reports;
  reports.reserve(violations_.size());
  for (const RaceViolation& v : violations_) {
    std::ostringstream os;
    os << "race " << RaceRuleName(v.rule) << " at t=" << v.time << ": " << v.detail;
    reports.push_back(os.str());
  }
  return reports;
}

void RaceDetector::ClearViolations() {
  violations_.clear();
  for (uint64_t& count : rule_counts_) {
    count = 0;
  }
}

RaceDetector::Stats RaceDetector::stats() const {
  Stats s = stats_;
  s.contexts = clocks_.size();
  s.edge_slots = edges_.size();
  size_t cells = 0;
  for (const auto& [object, by_offset] : shadow_) {
    cells += by_offset.size();
  }
  s.shadow_cells = cells;
  return s;
}

}  // namespace ucheck
