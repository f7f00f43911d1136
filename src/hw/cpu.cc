#include "src/hw/cpu.h"

#include <functional>

#include "src/hw/machine.h"

namespace hwsim {

const char* PrivLevelName(PrivLevel level) {
  switch (level) {
    case PrivLevel::kPrivileged:
      return "privileged";
    case PrivLevel::kGuestKernel:
      return "guest-kernel";
    case PrivLevel::kUser:
      return "user";
  }
  return "?";
}

Cpu::Cpu(Machine& machine, uint32_t tlb_entries, uint32_t vcpu_id)
    : machine_(machine), vcpu_id_(vcpu_id), tlb_(tlb_entries) {}

void Cpu::SwitchAddressSpace(PageTable* space) {
  if (space == address_space_) {
    return;
  }
  address_space_ = space;
  ++context_switches_;
  machine_.Charge(machine_.costs().address_space_switch);
  if (machine_.platform().tagged_tlb) {
    // ASID-tagged TLB: entries survive, distinguished by their tag.
    tlb_salt_ = TlbSaltOf(space);
  } else {
    tlb_salt_ = 0;
    salt0_space_ = space;
    tlb_.FlushAll();
    machine_.Charge(machine_.costs().tlb_flush_full);
  }
}

void Cpu::SwitchAddressSpaceSmall(PageTable* space) {
  if (space == address_space_) {
    return;
  }
  address_space_ = space;
  // Entries of this space live at different linear addresses (its segment
  // base relocates them); the salt reproduces that distinctness.
  tlb_salt_ = TlbSaltOf(space);
  ++context_switches_;
  // Segment remap: reload the four data-segment registers; no TLB flush.
  ChargeSegmentReloads(4);
}

void Cpu::InvalidatePage(const PageTable* space, Vaddr vpn) {
  // An entry for this page can live under two keys: the raw vpn (inserted
  // while the space was loaded untagged, salt 0) or the salted key
  // (inserted while it was active as a tagged or small space). Salts keep
  // to the upper 32 bits and vpns below them, so the keys are distinct and
  // flushing both is exact.
  tlb_.FlushPage(vpn);
  tlb_.FlushPage(vpn ^ TlbSaltOf(space));
}

void Cpu::InvalidatePageKeyed(uint64_t salt, Vaddr vpn) {
  tlb_.FlushPage(vpn);
  if (salt != 0) {
    tlb_.FlushPage(vpn ^ salt);
  }
}

uint32_t Cpu::FlushSpaceEntries(const PageTable* space, uint64_t salt) {
  const bool owns_salt0 = salt0_space_ == space && space != nullptr;
  const uint32_t flushed = tlb_.FlushIf([&](const TlbEntry& entry) {
    const uint64_t entry_salt = entry.vpn & ~uint64_t{0xffffffff};
    if (salt != 0 && entry_salt == salt) {
      return true;
    }
    return entry_salt == 0 && owns_salt0;
  });
  if (owns_salt0) {
    salt0_space_ = nullptr;
  }
  return flushed;
}

ukvm::Result<Translation> Cpu::Translate(Vaddr va, bool write, bool user_access) {
  if (address_space_ == nullptr) {
    return ukvm::Err::kFault;
  }
  const Vaddr vpn = (va >> address_space_->page_shift()) ^ tlb_salt_;
  const uint64_t offset = va & (address_space_->page_size() - 1);

  if (auto hit = tlb_.Lookup(vpn)) {
    if ((write && !hit->writable) || (user_access && !hit->user)) {
      // Permission upgrade requires the page tables; fall through to a walk
      // so dirty-bit emulation and copy-on-write schemes can work.
    } else {
      return Translation{machine_.memory().FrameBase(hit->frame) + offset, hit->frame,
                         hit->writable, hit->user};
    }
  }

  // TLB miss (or permission recheck): walk the page table.
  machine_.Charge(machine_.costs().tlb_miss_walk);
  Pte* pte = address_space_->Walk(va);
  if (pte == nullptr || !pte->present) {
    return ukvm::Err::kFault;
  }
  if (write && !pte->writable) {
    return ukvm::Err::kFault;
  }
  if (user_access && !pte->user) {
    return ukvm::Err::kFault;
  }
  pte->accessed = true;
  if (write) {
    pte->dirty = true;
  }
  FillTlb(vpn, pte->frame, pte->writable, pte->user);
  return Translation{machine_.memory().FrameBase(pte->frame) + offset, pte->frame, pte->writable,
                     pte->user};
}

void Cpu::FillTlb(Vaddr key, Frame frame, bool writable, bool user) {
  const TlbEntry& entry = tlb_.Insert(key, frame, writable, user);
  if (Observer* observer = machine_.observer()) {
    observer->TlbInsert(entry);
  }
}

void Cpu::ChargeSegmentReloads(uint32_t count) {
  machine_.Charge(machine_.costs().segment_reload * count);
}

}  // namespace hwsim
