#include "src/core/crossings.h"

#include <algorithm>
#include <cassert>

namespace ukvm {

const char* CrossingKindName(CrossingKind kind) {
  switch (kind) {
    case CrossingKind::kSyncCall:
      return "sync-call";
    case CrossingKind::kSyncReply:
      return "sync-reply";
    case CrossingKind::kAsyncNotify:
      return "async-notify";
    case CrossingKind::kDataTransfer:
      return "data-transfer";
    case CrossingKind::kResourceDelegate:
      return "resource-delegate";
    case CrossingKind::kTrap:
      return "trap";
    case CrossingKind::kTrapReturn:
      return "trap-return";
    case CrossingKind::kInterrupt:
      return "interrupt";
    case CrossingKind::kKindCount:
      break;
  }
  return "?";
}

uint64_t CrossingSnapshot::IpcLikeCount() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kCrossingKindCount; ++i) {
    if (static_cast<CrossingKind>(i) == CrossingKind::kInterrupt) {
      continue;
    }
    sum += kind_counts[i];
  }
  return sum;
}

CrossingSnapshot DiffSnapshots(const CrossingSnapshot& before, const CrossingSnapshot& after) {
  CrossingSnapshot diff;
  for (size_t i = 0; i < kCrossingKindCount; ++i) {
    diff.kind_counts[i] = after.kind_counts[i] - before.kind_counts[i];
  }
  diff.total_count = after.total_count - before.total_count;
  diff.total_cycles = after.total_cycles - before.total_cycles;
  diff.mechanisms = after.mechanisms;
  for (auto& mech : diff.mechanisms) {
    auto it = std::find_if(before.mechanisms.begin(), before.mechanisms.end(),
                           [&](const MechanismStats& m) { return m.name == mech.name; });
    if (it != before.mechanisms.end()) {
      mech.count -= it->count;
      mech.cycles -= it->cycles;
      mech.bytes -= it->bytes;
    }
  }
  return diff;
}

uint32_t CrossingLedger::InternMechanism(std::string_view name, CrossingKind kind) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    assert(slots_[it->second].kind == kind);
    return it->second;
  }
  const auto id = static_cast<uint32_t>(slots_.size());
  slots_.push_back(MechanismSlot{std::string(name), kind, 0, 0, 0});
  by_name_.emplace(std::string(name), id);
  return id;
}

void CrossingLedger::Record(uint32_t mechanism, DomainId from, DomainId to, uint64_t cycles,
                            uint64_t bytes) {
  assert(mechanism < slots_.size());
  MechanismSlot& slot = slots_[mechanism];
  slot.count += 1;
  slot.cycles += cycles;
  slot.bytes += bytes;
  kind_counts_[static_cast<size_t>(slot.kind)] += 1;
  total_count_ += 1;
  total_cycles_ += cycles;
  const uint64_t seq = events_recorded_++;
  if (!sinks_.empty()) {
    CrossingEvent event;
    event.mechanism = mechanism;
    event.kind = slot.kind;
    event.from = from;
    event.to = to;
    event.cycles = cycles;
    event.bytes = bytes;
    event.seq = seq;
    event.time = now_ ? now_() : 0;
    for (const auto& [id, sink] : sinks_) {
      sink(event);
    }
  }
}

uint32_t CrossingLedger::AddTraceSink(std::function<void(const CrossingEvent&)> sink) {
  assert(sink);
  const uint32_t handle = next_sink_id_++;
  sinks_.emplace_back(handle, std::move(sink));
  return handle;
}

void CrossingLedger::RemoveTraceSink(uint32_t handle) {
  std::erase_if(sinks_, [handle](const auto& entry) { return entry.first == handle; });
}

uint64_t CrossingLedger::CountByKind(CrossingKind kind) const {
  return kind_counts_[static_cast<size_t>(kind)];
}

MechanismStats CrossingLedger::StatsFor(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return MechanismStats{std::string(name), CrossingKind::kKindCount, 0, 0, 0};
  }
  const MechanismSlot& slot = slots_[it->second];
  return MechanismStats{slot.name, slot.kind, slot.count, slot.cycles, slot.bytes};
}

CrossingSnapshot CrossingLedger::Snapshot() const {
  CrossingSnapshot snap;
  snap.kind_counts = kind_counts_;
  snap.total_count = total_count_;
  snap.total_cycles = total_cycles_;
  snap.mechanisms.reserve(slots_.size());
  for (const MechanismSlot& slot : slots_) {
    snap.mechanisms.push_back(
        MechanismStats{slot.name, slot.kind, slot.count, slot.cycles, slot.bytes});
  }
  return snap;
}

}  // namespace ukvm
