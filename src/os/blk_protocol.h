// The exactly-once block-service protocol (E19), both halves. The VMM's
// split block driver (blkfront/blkback) and the microkernel's block server
// and its IPC client speak it alike.
//
// Client side: every write chunk is journaled under a fresh id before it is
// submitted, and stays journaled until the server answers it with any
// status. Ids never reset, so a replay after a server restart reuses them.
// Every write also carries the journal's low-water mark, its lowest id.
//
// Server side: what must outlive any one server instance lives in one
// stack-owned store, the way Parallax keeps its metadata in the store
// rather than in the restartable server process. The store knows which
// slice each client owns and which of its writes reached the disk; a
// replayed write that already did is answered success without touching
// the device. The client key is a guest domain for the VMM's blkback and a
// client task for the microkernel's block server, both DomainId-typed.

#ifndef UKVM_SRC_OS_BLK_PROTOCOL_H_
#define UKVM_SRC_OS_BLK_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/core/reqtrace.h"

namespace minios {

// A block client's journal of unanswered writes.
class BlkJournal {
 public:
  struct Entry {
    uint64_t lba = 0;    // slice-relative
    uint32_t count = 0;  // blocks, one transfer's worth
    std::vector<uint8_t> payload;
    ukvm::ReqTraceRef trace;  // E22: the write request, live until resolved
  };

  // A fresh id for a request that is not journaled (reads, probes).
  uint64_t NextId() { return next_id_++; }

  // Journals one write chunk under a fresh id and returns the id.
  uint64_t Add(uint64_t lba, uint32_t count, std::span<const uint8_t> payload,
               ukvm::ReqTraceRef trace) {
    const uint64_t id = next_id_++;
    entries_.emplace(id, Entry{lba, count, {payload.begin(), payload.end()}, trace});
    return id;
  }

  // The lowest journaled id, carried by every write (the journal holds at
  // least the write being sent). The server forgets the ids below it.
  uint64_t LowWater() const { return entries_.begin()->first; }

  // The server answered `id`: its fate is known whatever the status, so it
  // leaves the journal. `ok` counts it as acknowledged.
  void Resolve(uint64_t id, bool ok) {
    entries_.erase(id);
    if (ok) {
      ++acked_ok_;
    }
  }

  // Re-issues every entry in id order through `submit(id, entry)`, the
  // client's ordinary submit path, which resolves the entry if the server
  // answers. Stops at the first entry left unanswered: the server died
  // again, and the tail waits for the next restart. Returns the number
  // resolved.
  template <typename Submit>
  uint64_t Replay(Submit submit) {
    uint64_t replayed = 0;
    while (!entries_.empty()) {
      const auto it = entries_.begin();
      const uint64_t id = it->first;
      submit(id, it->second);
      if (entries_.contains(id)) {
        break;
      }
      ++replayed;
    }
    return replayed;
  }

  // Unanswered writes in id order, which is the replay order.
  const std::map<uint64_t, Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  // Write chunks answered success: the client's side of the exactly-once
  // check (the store's applied_total must equal the sum over clients).
  uint64_t acked_ok() const { return acked_ok_; }

 private:
  uint64_t next_id_ = 1;  // 0 is never an id: clients use it for "not a replay"
  std::map<uint64_t, Entry> entries_;
  uint64_t acked_ok_ = 0;
};

// The block service's stack-owned store: the slice table plus the
// exactly-once log of applied writes.
class BlkStore {
 public:
  // Carves the disk into as many `slice_blocks`-sized slices as fit.
  BlkStore(uint64_t slice_blocks, uint64_t disk_blocks)
      : slice_blocks_(slice_blocks), max_slices_(disk_blocks / slice_blocks) {}

  uint64_t slice_blocks() const { return slice_blocks_; }

  // First block of `client`'s slice. A client gets the next free slice on
  // first contact and keeps it for the store's lifetime, across server
  // restarts and other clients' deaths. kNoMemory once every slice is taken.
  ukvm::Result<uint64_t> SliceBase(ukvm::DomainId client) {
    auto it = slices_.find(client);
    if (it == slices_.end()) {
      if (slices_.size() >= max_slices_) {
        return ukvm::Err::kNoMemory;
      }
      it = slices_.emplace(client, slices_.size()).first;
    }
    return it->second * slice_blocks_;
  }

  // Admits one write. First forgets the client's ids below `low_water`:
  // they were answered and can never be replayed, which keeps the log at
  // about one live entry per client. Then reports whether `id` already
  // reached the disk, counting such a replay as suppressed. The mark must
  // be the journal's, not the highest id seen: a liveness probe can
  // overtake an applied-but-unanswered write whose replay must still be
  // recognised.
  bool AlreadyApplied(ukvm::DomainId client, uint64_t id, uint64_t low_water) {
    std::set<uint64_t>& ids = applied_[client];
    ids.erase(ids.begin(), ids.lower_bound(low_water));
    if (!ids.contains(id)) {
      return false;
    }
    ++suppressed_total_;
    return true;
  }

  // The write reached the disk.
  void MarkApplied(ukvm::DomainId client, uint64_t id) {
    if (applied_[client].insert(id).second) {
      ++applied_total_;
    }
  }

  // Distinct (client, id) writes that reached the disk exactly once.
  uint64_t applied_total() const { return applied_total_; }
  // Replayed duplicates answered from the log instead of the device.
  uint64_t suppressed_total() const { return suppressed_total_; }
  // Applied ids still remembered, over all clients.
  size_t live_entries() const {
    size_t n = 0;
    for (const auto& [client, ids] : applied_) {
      n += ids.size();
    }
    return n;
  }

 private:
  uint64_t slice_blocks_;
  uint64_t max_slices_;
  std::unordered_map<ukvm::DomainId, uint64_t> slices_;  // client -> slice index
  std::unordered_map<ukvm::DomainId, std::set<uint64_t>> applied_;
  uint64_t applied_total_ = 0;
  uint64_t suppressed_total_ = 0;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_BLK_PROTOCOL_H_
