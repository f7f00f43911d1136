// A small fully-associative TLB with FIFO replacement.
//
// TLB behaviour matters to the experiments because address-space switches
// (which both kernels perform on every protection-domain crossing on
// untagged architectures) flush it, and the subsequent refill cost is part
// of the true price of a crossing — the effect Liedtke's small-spaces work
// (cited by the paper as [Lie95]) was designed to avoid.

#ifndef UKVM_SRC_HW_TLB_H_
#define UKVM_SRC_HW_TLB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/hw/memory.h"

namespace hwsim {

struct TlbEntry {
  Vaddr vpn = 0;
  Frame frame = 0;
  bool writable = false;
  bool user = false;
  bool valid = false;
  // Monotonic insertion stamp (per TLB); lets the auditor's incremental
  // coherence sweep visit only entries inserted since its last checkpoint.
  uint64_t stamp = 0;
};

class Tlb {
 public:
  explicit Tlb(uint32_t capacity);

  std::optional<TlbEntry> Lookup(Vaddr vpn);
  // Returns the entry as stored.
  const TlbEntry& Insert(Vaddr vpn, Frame frame, bool writable, bool user);
  void FlushAll();
  void FlushPage(Vaddr vpn);

  // Side-effect-free lookup for auditors: no hit/miss accounting, no cost.
  std::optional<TlbEntry> Probe(Vaddr vpn) const;

  // Invalidates every valid entry matching `pred`; returns how many.
  uint32_t FlushIf(const std::function<bool(const TlbEntry&)>& pred);

  // Visits every valid entry (keys as inserted, i.e. salted vpns).
  void ForEachValid(const std::function<void(const TlbEntry&)>& fn) const;

  // Visits every valid entry inserted after stamp `after` (exclusive).
  void ForEachValidSince(uint64_t after, const std::function<void(const TlbEntry&)>& fn) const;

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  // Stamp of the most recent insert; entries carry stamps in (0, insert_seq].
  uint64_t insert_seq() const { return insert_seq_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t flushes() const { return flushes_; }
  uint32_t valid_entries() const;

 private:
  std::vector<TlbEntry> slots_;
  std::unordered_map<Vaddr, uint32_t> index_;  // vpn -> slot
  uint32_t next_victim_ = 0;                   // FIFO hand
  uint64_t insert_seq_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_TLB_H_
