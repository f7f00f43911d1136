// Page tables: a two-level radix structure, hardware-walkable.
//
// Each protection domain owns a PageTable; the MMU (src/hw/mmu in cpu.cc)
// consults it on TLB misses. The VMM's paravirtual page-table interface
// validates and applies guest updates to these same structures, and the
// microkernel's mapping database records map/grant relationships over them,
// so both kernels exercise real page-table state transitions.

#ifndef UKVM_SRC_HW_PAGING_H_
#define UKVM_SRC_HW_PAGING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/error.h"
#include "src/hw/memory.h"

namespace hwsim {

class Machine;

// Issues the TLB salt identities page tables carry (upper 32 key bits).
// Recycling is double-gated: an id returns to the free pool only after the
// table is destroyed (Retire) AND the machine's shootdown protocol reports
// every vCPU acknowledged the space's death flush (Release). Until both
// happen the id is quarantined, so a new table can never alias TLB keys
// with entries of a dead space that some vCPU might still hold.
class TlbSaltRegistry {
 public:
  static uint64_t Acquire();
  // The table carrying `salt_id` was destroyed.
  static void Retire(uint64_t salt_id);
  // Every vCPU acked the death shootdown for the space carrying `salt_id`.
  static void Release(uint64_t salt_id);

  // Retired without a completed death shootdown: not reusable.
  static bool IsQuarantined(uint64_t salt_id);
  static size_t quarantined_count();
  static uint64_t reuses();

 private:
  struct State {
    uint64_t next_id = 1;  // 0 stays the untagged salt
    std::vector<uint64_t> free;
    std::unordered_set<uint64_t> retired;   // destroyed, awaiting Release
    std::unordered_set<uint64_t> released;  // acked, table still alive
    uint64_t reuses = 0;
  };
  static State& state();
};

// One page-table entry.
struct Pte {
  Frame frame = 0;
  bool present = false;
  bool writable = false;
  bool user = false;      // accessible from user mode
  bool accessed = false;  // set by the MMU on translation
  bool dirty = false;     // set by the MMU on write translation
};

struct PtePerms {
  bool writable = false;
  bool user = true;
};

// What a Map/Unmap did to a PTE, as reported to the machine's observer.
enum class PteOp : uint8_t { kMap, kUnmap };

// Result of a translation attempt.
struct Translation {
  Paddr paddr = 0;
  Frame frame = 0;
  bool writable = false;
  bool user = false;
};

class PageTable {
 public:
  // A standalone table: nothing observes its updates.
  PageTable(uint32_t page_shift, uint32_t vaddr_bits);
  // A table of `machine` (its platform's page and address sizes): Map and
  // Unmap report to the machine's observer slot. Direct WalkCreate writers
  // (the paravirtual PT interface) bypass this and report their batch.
  explicit PageTable(Machine& machine);
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Installs a mapping, overwriting any existing one at `va`.
  ukvm::Err Map(Vaddr va, Frame frame, PtePerms perms);
  ukvm::Err Unmap(Vaddr va);

  // Pure lookup without access/dirty side effects; kNotFound if unmapped.
  ukvm::Result<Pte> Lookup(Vaddr va) const;

  // Walks to the PTE, creating intermediate levels; used by the MMU (to set
  // accessed/dirty) and by the hypervisor's PT-update validation.
  Pte& WalkCreate(Vaddr va);
  // Walks without creating; nullptr if the leaf table is absent.
  Pte* Walk(Vaddr va);
  const Pte* Walk(Vaddr va) const;

  // Visits every present mapping (vpn, pte).
  void ForEachMapping(const std::function<void(Vaddr vpn, const Pte&)>& fn) const;

  // The machine whose observer sees this table's updates; null if standalone.
  const Machine* machine() const { return machine_; }

  uint64_t mapped_pages() const { return mapped_pages_; }
  uint32_t page_shift() const { return page_shift_; }
  uint64_t max_va() const;

  // The TLB salt entries of this table carry when it is active as a tagged
  // or small space: an identity in the upper 32 bits (vpns stay below
  // them) issued by TlbSaltRegistry at construction. Two live tables — or
  // a dead table and a new one reallocated at the same address — can never
  // alias, which a pointer hash cannot promise; recycling of dead ids is
  // quarantined behind the shootdown-ack gate (see TlbSaltRegistry).
  uint64_t tlb_salt() const { return salt_id_ << 32; }

  // Process-unique, never-recycled construction number. Salt ids leave
  // quarantine once a death shootdown fully acks, and the allocator can
  // hand a new table the old one's address, so across time both can alias;
  // this is the identity that cannot (used by the dead-space registry).
  uint64_t instance_id() const { return instance_id_; }

  Vaddr VpnOf(Vaddr va) const { return va >> page_shift_; }
  Vaddr PageBase(Vaddr va) const { return va & ~(page_size() - 1); }
  uint64_t page_size() const { return uint64_t{1} << page_shift_; }

 private:
  static constexpr uint32_t kLeafBits = 10;  // 1024 PTEs per leaf table
  static constexpr uint64_t kLeafSize = uint64_t{1} << kLeafBits;

  struct LeafTable {
    std::vector<Pte> entries;
    LeafTable() : entries(kLeafSize) {}
  };

  bool VaInRange(Vaddr va) const { return va < max_va(); }
  void Report(PteOp op, Vaddr vpn, const Pte& pte) const;

  uint32_t page_shift_;
  uint32_t vaddr_bits_;
  uint64_t salt_id_ = 0;
  uint64_t instance_id_ = 0;
  uint64_t mapped_pages_ = 0;
  std::unordered_map<uint64_t, std::unique_ptr<LeafTable>> directory_;
  Machine* machine_ = nullptr;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_PAGING_H_
