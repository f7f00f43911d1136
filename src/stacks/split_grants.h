// The grant owners of a split-driver connection, one per end: each decides
// persistent versus transient in one place and remembers what outlives a
// request, so one teardown can release it whichever way the backend died.
// Persistent grants (a Xen protocol extension) keep a page's grant and
// mapping alive across requests; the grant/map/unmap/end hypercalls they
// elide are the saving.

#ifndef UKVM_SRC_STACKS_SPLIT_GRANTS_H_
#define UKVM_SRC_STACKS_SPLIT_GRANTS_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/vmm/hypervisor.h"

namespace ustack {

// The frontend's grants of its I/O pages to its backend. A transient grant
// belongs to the request it was made for, which ends it when done. A
// persistent one is cached per (page, direction) and lives until the
// teardown.
class FrontGrants {
 public:
  FrontGrants(uvmm::Hypervisor& hv, ukvm::DomainId guest) : hv_(hv), guest_(guest) {}

  // Connect: grants go to `backend` from now on, in its grant mode.
  void Attach(ukvm::DomainId backend, bool persistent) {
    backend_ = backend;
    persistent_ = persistent;
  }

  // A grant of `pfn` for one request: the page's cached grant in
  // persistent mode (made on first use), else a fresh one.
  ukvm::Result<uint32_t> Grant(uvmm::Pfn pfn, bool writable) {
    const uint64_t key = uint64_t{pfn} * 2 + (writable ? 1 : 0);
    if (auto it = cached_.find(key); persistent_ && it != cached_.end()) {
      ++hits_;
      return it->second;
    }
    auto gref = hv_.HcGrantAccess(guest_, backend_, pfn, writable);
    if (gref.ok() && persistent_) {
      cached_.emplace(key, *gref);
    }
    return gref;
  }

  // The request holding `gref` is done: a transient grant ends, a cached
  // one stays for the page's next request.
  void Release(uint32_t gref) {
    if (!persistent_) {
      (void)hv_.HcGrantEnd(guest_, gref);
    }
  }

  // Teardown of the cache. While the backend's domain lives each grant is
  // ended; a dead domain's grants were reclaimed by the hypervisor, so they
  // are only forgotten and no hypercall is made.
  void EndCached(bool backend_alive) {
    for (const auto& [key, gref] : cached_) {
      if (backend_alive) {
        (void)hv_.HcGrantEnd(guest_, gref);
      }
    }
    cached_.clear();
  }

  uint64_t hits() const { return hits_; }

 private:
  uvmm::Hypervisor& hv_;
  ukvm::DomainId guest_;
  ukvm::DomainId backend_ = ukvm::DomainId::Invalid();
  bool persistent_ = false;
  std::map<uint64_t, uint32_t> cached_;  // pfn * 2 + writable -> gref, in page order
  uint64_t hits_ = 0;
};

// The backend's mappings of granted pages in its VA window. Transient mode
// maps each request at the next slot of a fixed ring at the window's base
// and unmaps it when the request is done; persistent mode maps each
// (granter, ref) once, at a slot of its own past the ring, and keeps it.
class BackMappings {
 public:
  BackMappings(uvmm::Hypervisor& hv, ukvm::DomainId backend, hwsim::Vaddr base, size_t ring_slots)
      : hv_(hv),
        backend_(backend),
        base_(base),
        page_(hv.machine().memory().page_size()),
        ring_slots_(ring_slots),
        slots_(ring_slots) {}

  void SetPersistent(bool on) { persistent_ = on; }
  bool persistent() const { return persistent_; }

  // Maps `ref` of `granter` for one request; returns where.
  ukvm::Result<hwsim::Vaddr> Map(ukvm::DomainId granter, uint32_t ref, bool write) {
    const uint64_t key = (uint64_t{granter.value()} << 32) | ref;
    size_t slot = slots_.size();  // the next persistent slot
    if (!persistent_) {
      slot = next_ring_slot_++ % ring_slots_;
    } else if (auto it = kept_.find(key); it != kept_.end()) {
      ++hits_;
      return SlotVa(it->second);
    }
    UKVM_TRY(hv_.HcGrantMap(backend_, granter, ref, SlotVa(slot), write));
    if (persistent_) {
      kept_.emplace(key, slot);
      slots_.emplace_back();
    }
    slots_[slot] = Mapping{granter, ref, true};
    return SlotVa(slot);
  }

  // The request mapped at `va` is done: a ring slot is unmapped, a
  // persistent mapping stays.
  void Done(hwsim::Vaddr va) {
    if (const size_t slot = (va - base_) / page_; slot < ring_slots_) {
      Unmap(slot);
    }
  }

  // The backend dies in place: unmaps every ring slot still in flight and
  // every persistent mapping, since a successor maps at the same VAs.
  void UnmapAll() {
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      Unmap(slot);
    }
    slots_.resize(ring_slots_);
    kept_.clear();
  }

  uint64_t hits() const { return hits_; }

 private:
  struct Mapping {
    ukvm::DomainId granter;
    uint32_t ref = 0;
    bool live = false;
  };

  hwsim::Vaddr SlotVa(size_t slot) const { return base_ + slot * page_; }
  void Unmap(size_t slot) {
    if (Mapping& m = slots_[slot]; m.live) {
      (void)hv_.HcGrantUnmap(backend_, m.granter, m.ref, SlotVa(slot));
      m.live = false;
    }
  }

  uvmm::Hypervisor& hv_;
  ukvm::DomainId backend_;
  hwsim::Vaddr base_;
  uint64_t page_;
  bool persistent_ = false;
  size_t ring_slots_;
  uint64_t next_ring_slot_ = 0;
  std::vector<Mapping> slots_;  // the ring, then one per persistent mapping
  std::unordered_map<uint64_t, size_t> kept_;  // (granter, ref) -> persistent slot
  uint64_t hits_ = 0;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_SPLIT_GRANTS_H_
