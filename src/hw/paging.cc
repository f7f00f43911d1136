#include "src/hw/paging.h"

#include <cassert>

#include "src/hw/machine.h"

namespace hwsim {

TlbSaltRegistry::State& TlbSaltRegistry::state() {
  static State s;
  return s;
}

uint64_t TlbSaltRegistry::Acquire() {
  State& s = state();
  if (!s.free.empty()) {
    const uint64_t id = s.free.back();
    s.free.pop_back();
    ++s.reuses;
    return id;
  }
  return s.next_id++;
}

void TlbSaltRegistry::Retire(uint64_t salt_id) {
  State& s = state();
  if (auto it = s.released.find(salt_id); it != s.released.end()) {
    s.released.erase(it);
    s.free.push_back(salt_id);
    return;
  }
  s.retired.insert(salt_id);
}

void TlbSaltRegistry::Release(uint64_t salt_id) {
  State& s = state();
  if (auto it = s.retired.find(salt_id); it != s.retired.end()) {
    s.retired.erase(it);
    s.free.push_back(salt_id);
    return;
  }
  s.released.insert(salt_id);
}

bool TlbSaltRegistry::IsQuarantined(uint64_t salt_id) {
  return state().retired.contains(salt_id);
}

size_t TlbSaltRegistry::quarantined_count() { return state().retired.size(); }

uint64_t TlbSaltRegistry::reuses() { return state().reuses; }

PageTable::PageTable(uint32_t page_shift, uint32_t vaddr_bits)
    : page_shift_(page_shift), vaddr_bits_(vaddr_bits), salt_id_(TlbSaltRegistry::Acquire()) {
  static uint64_t next_instance_id = 0;
  instance_id_ = ++next_instance_id;
  assert(vaddr_bits_ > page_shift_);
}

PageTable::PageTable(Machine& machine)
    : PageTable(machine.platform().page_shift, machine.platform().vaddr_bits) {
  machine_ = &machine;
}

PageTable::~PageTable() { TlbSaltRegistry::Retire(salt_id_); }

void PageTable::Report(PteOp op, Vaddr vpn, const Pte& pte) const {
  if (machine_ == nullptr) {
    return;
  }
  if (Observer* observer = machine_->observer()) {
    observer->PteChanged(*this, op, vpn, pte);
  }
}

uint64_t PageTable::max_va() const {
  if (vaddr_bits_ >= 64) {
    return ~uint64_t{0};
  }
  return uint64_t{1} << vaddr_bits_;
}

ukvm::Err PageTable::Map(Vaddr va, Frame frame, PtePerms perms) {
  if (!VaInRange(va)) {
    return ukvm::Err::kOutOfRange;
  }
  Pte& pte = WalkCreate(va);
  if (!pte.present) {
    ++mapped_pages_;
  }
  pte.frame = frame;
  pte.present = true;
  pte.writable = perms.writable;
  pte.user = perms.user;
  pte.accessed = false;
  pte.dirty = false;
  Report(PteOp::kMap, VpnOf(va), pte);
  return ukvm::Err::kNone;
}

ukvm::Err PageTable::Unmap(Vaddr va) {
  if (!VaInRange(va)) {
    return ukvm::Err::kOutOfRange;
  }
  Pte* pte = Walk(va);
  if (pte == nullptr || !pte->present) {
    return ukvm::Err::kNotFound;
  }
  const Pte removed = *pte;
  *pte = Pte{};
  --mapped_pages_;
  Report(PteOp::kUnmap, VpnOf(va), removed);
  return ukvm::Err::kNone;
}

ukvm::Result<Pte> PageTable::Lookup(Vaddr va) const {
  if (!VaInRange(va)) {
    return ukvm::Err::kOutOfRange;
  }
  const Pte* pte = Walk(va);
  if (pte == nullptr || !pte->present) {
    return ukvm::Err::kNotFound;
  }
  return *pte;
}

Pte& PageTable::WalkCreate(Vaddr va) {
  const Vaddr vpn = VpnOf(va);
  const uint64_t dir = vpn >> kLeafBits;
  auto& leaf = directory_[dir];
  if (!leaf) {
    leaf = std::make_unique<LeafTable>();
  }
  return leaf->entries[vpn & (kLeafSize - 1)];
}

Pte* PageTable::Walk(Vaddr va) {
  const Vaddr vpn = VpnOf(va);
  auto it = directory_.find(vpn >> kLeafBits);
  if (it == directory_.end()) {
    return nullptr;
  }
  return &it->second->entries[vpn & (kLeafSize - 1)];
}

const Pte* PageTable::Walk(Vaddr va) const {
  const Vaddr vpn = VpnOf(va);
  auto it = directory_.find(vpn >> kLeafBits);
  if (it == directory_.end()) {
    return nullptr;
  }
  return &it->second->entries[vpn & (kLeafSize - 1)];
}

void PageTable::ForEachMapping(const std::function<void(Vaddr vpn, const Pte&)>& fn) const {
  for (const auto& [dir, leaf] : directory_) {
    for (uint64_t slot = 0; slot < kLeafSize; ++slot) {
      const Pte& pte = leaf->entries[slot];
      if (pte.present) {
        fn((dir << kLeafBits) | slot, pte);
      }
    }
  }
}

}  // namespace hwsim
