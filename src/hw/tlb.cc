#include "src/hw/tlb.h"

#include <cassert>

namespace hwsim {

Tlb::Tlb(uint32_t capacity) : slots_(capacity) { assert(capacity > 0); }

std::optional<TlbEntry> Tlb::Lookup(Vaddr vpn) {
  auto it = index_.find(vpn);
  if (it == index_.end() || !slots_[it->second].valid) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return slots_[it->second];
}

const TlbEntry& Tlb::Insert(Vaddr vpn, Frame frame, bool writable, bool user) {
  auto it = index_.find(vpn);
  uint32_t slot;
  if (it != index_.end()) {
    slot = it->second;
  } else {
    slot = next_victim_;
    next_victim_ = (next_victim_ + 1) % static_cast<uint32_t>(slots_.size());
    if (slots_[slot].valid) {
      index_.erase(slots_[slot].vpn);
    }
    index_[vpn] = slot;
  }
  slots_[slot] = TlbEntry{vpn, frame, writable, user, true, ++insert_seq_};
  return slots_[slot];
}

uint32_t Tlb::FlushIf(const std::function<bool(const TlbEntry&)>& pred) {
  uint32_t flushed = 0;
  for (TlbEntry& entry : slots_) {
    if (entry.valid && pred(entry)) {
      index_.erase(entry.vpn);
      entry.valid = false;
      ++flushed;
    }
  }
  return flushed;
}

std::optional<TlbEntry> Tlb::Probe(Vaddr vpn) const {
  auto it = index_.find(vpn);
  if (it == index_.end() || !slots_[it->second].valid) {
    return std::nullopt;
  }
  return slots_[it->second];
}

void Tlb::ForEachValid(const std::function<void(const TlbEntry&)>& fn) const {
  for (const TlbEntry& entry : slots_) {
    if (entry.valid) {
      fn(entry);
    }
  }
}

void Tlb::ForEachValidSince(uint64_t after,
                            const std::function<void(const TlbEntry&)>& fn) const {
  for (const TlbEntry& entry : slots_) {
    if (entry.valid && entry.stamp > after) {
      fn(entry);
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& entry : slots_) {
    entry.valid = false;
  }
  index_.clear();
  ++flushes_;
}

void Tlb::FlushPage(Vaddr vpn) {
  auto it = index_.find(vpn);
  if (it != index_.end()) {
    slots_[it->second].valid = false;
    index_.erase(it);
  }
}

uint32_t Tlb::valid_entries() const {
  uint32_t n = 0;
  for (const TlbEntry& entry : slots_) {
    if (entry.valid) {
      ++n;
    }
  }
  return n;
}

}  // namespace hwsim
