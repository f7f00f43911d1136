// E18 cross-stack lifecycle fuzzer.
//
// Seeded, fully deterministic map/unmap/grant/transfer/destroy/shootdown
// sequences against all three stacks' memory paths, with the invariant
// auditor attached throughout. Two properties per seed:
//
//  1. auditor-clean: no isolation invariant fires at any checkpoint — the
//     shootdown protocol really does keep every vCPU's TLB coherent with
//     the page tables through arbitrary interleavings of revocation and
//     address-space death;
//  2. byte-identical determinism: two runs of the same seed produce the
//     same digest (clock, per-domain cycles, per-vCPU TLB traffic,
//     shootdown counters). Nondeterminism here would invalidate every
//     cycle number the experiments report.
//
// ctest runs a fixed bank of seeds (kDefaultSeeds per stack); set
// UKVM_FUZZ_SEEDS=<n> for a longer sweep (scripts/check.sh does).
//
// The digest deliberately excludes absolute TLB salt ids and the
// TlbSaltRegistry counters: the registry is process-global, so a second
// run inside the same test binary legitimately sees different ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/check/invariants.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/ukernel/ipc.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/task.h"
#include "src/vmm/domain.h"
#include "src/vmm/hypervisor.h"
#include "src/vmm/pt_virt.h"

namespace {

using ucheck::Auditor;
using ucheck::Invariant;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::ThreadId;

// --- Deterministic PRNG and digest ----------------------------------------------

struct SplitMix64 {
  uint64_t state;
  explicit SplitMix64(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(uint32_t percent) { return Below(100) < percent; }
};

struct Digest {
  uint64_t value = 0x243f6a8885a308d3ull;
  void Mix(uint64_t v) { value ^= v + 0x9e3779b97f4a7c15ull + (value << 6) + (value >> 2); }
};

struct FuzzResult {
  uint64_t digest = 0;
  size_t violations = 0;
  std::vector<std::string> reports;
  uint64_t tlb_audited = 0;
  uint64_t tlb_skipped = 0;
  uint64_t fastpath_taken = 0;      // E21: how often a Call went fast this run
  uint64_t fastpath_replywait = 0;  // E23: how often the reply-receive coalesced
  std::map<Invariant, size_t> by_rule;
};

void FinishDigest(hwsim::Machine& machine, Auditor& auditor, FuzzResult& out) {
  auditor.Checkpoint("fuzz-final");
  Digest d;
  d.Mix(machine.Now());
  for (const auto& [dom, cycles] : machine.accounting().ByDomain()) {
    d.Mix(dom.value());
    d.Mix(cycles);
  }
  for (uint32_t v = 0; v < machine.num_vcpus(); ++v) {
    const hwsim::Tlb& tlb = machine.cpu(v).tlb();
    d.Mix(tlb.hits());
    d.Mix(tlb.misses());
    d.Mix(tlb.flushes());
    d.Mix(tlb.insert_seq());
  }
  const auto& ss = machine.shootdown_stats();
  d.Mix(ss.requests);
  d.Mix(ss.full_flushes);
  d.Mix(ss.pages_requested);
  d.Mix(ss.ipis_sent);
  d.Mix(ss.remote_acks);
  d.Mix(auditor.violation_count());
  out.digest = d.value;
  out.violations = auditor.violation_count();
  out.reports = auditor.ViolationReports();
  out.tlb_audited = auditor.invariants().tlb_entries_audited();
  out.tlb_skipped = auditor.invariants().tlb_entries_skipped();
  for (const auto& v : auditor.invariants().violations()) {
    ++out.by_rule[v.rule];
  }
}

uint32_t VcpusForSeed(uint64_t seed) { return 1 + static_cast<uint32_t>(seed % 4); }

// Alternate an untagged-TLB platform with a tagged one so both the salt-0
// and the salted attribution/flush paths see fuzz traffic.
hwsim::Platform PlatformForSeed(uint64_t seed) {
  return (seed % 2) == 0 ? hwsim::MakeX86Platform() : hwsim::MakeItaniumPlatform();
}

// --- Native: raw spaces straight on the machine ----------------------------------

FuzzResult RunNativeFuzz(uint64_t seed, uint32_t steps, bool incremental_tlb) {
  SplitMix64 rng(seed * 2 + 1);
  hwsim::Machine machine(PlatformForSeed(seed), 16ull * 1024 * 1024, VcpusForSeed(seed));

  struct Space {
    std::unique_ptr<hwsim::PageTable> table;
    DomainId domain;
    std::vector<hwsim::Vaddr> mapped;  // page-aligned VAs with live PTEs
    hwsim::Vaddr next_va;
  };
  std::vector<Space> spaces;
  uint32_t next_dom = 1;

  Auditor::Options opts;
  opts.incremental_tlb = incremental_tlb;
  opts.race_detect = true;  // E20: fuzz histories must stay race-free too
  Auditor auditor(machine, opts);
  const uint64_t page = machine.memory().page_size();

  auto make_space = [&] {
    Space s;
    s.table = std::make_unique<hwsim::PageTable>(machine);
    s.domain = DomainId{next_dom++};
    s.next_va = 0x0100'0000;
    auditor.AttachSpace(s.domain, *s.table);
    spaces.push_back(std::move(s));
  };
  make_space();
  make_space();

  for (uint32_t step = 0; step < steps; ++step) {
    Space& s = spaces[rng.Below(spaces.size())];
    machine.cpu().SetDomain(s.domain);
    const uint64_t op = rng.Below(100);
    if (op < 30) {  // map a fresh page
      auto frame = machine.memory().AllocFrame(s.domain);
      if (!frame.ok()) {
        continue;
      }
      const hwsim::Vaddr va = s.next_va;
      s.next_va += page;
      EXPECT_EQ(s.table->Map(va, *frame, hwsim::PtePerms{rng.Chance(50), true}), Err::kNone)
          << "seed " << seed;
      machine.Charge(machine.costs().pte_write);
      s.mapped.push_back(va);
    } else if (op < 55 && !s.mapped.empty()) {  // touch: fill this vCPU's TLB
      machine.cpu().SwitchAddressSpace(s.table.get());
      (void)machine.cpu().Translate(s.mapped[rng.Below(s.mapped.size())], false, false);
    } else if (op < 75 && !s.mapped.empty()) {  // revoke + cross-vCPU shootdown
      const size_t pick = rng.Below(s.mapped.size());
      const hwsim::Vaddr va = s.mapped[pick];
      s.mapped.erase(s.mapped.begin() + static_cast<ptrdiff_t>(pick));
      const hwsim::Pte* pte = s.table->Walk(va);
      const hwsim::Frame frame = pte->frame;
      EXPECT_EQ(s.table->Unmap(va), Err::kNone);
      machine.Charge(machine.costs().pte_write);
      const hwsim::Vaddr vpn = s.table->VpnOf(va);
      machine.cpu().InvalidatePage(s.table.get(), vpn);
      machine.TlbShootdown(s.table.get(), {&vpn, 1});
      machine.memory().FreeFrame(frame);
    } else if (op < 85) {  // migrate
      machine.SwitchVcpu(static_cast<uint32_t>(rng.Below(machine.num_vcpus())));
    } else if (op < 92 && spaces.size() < 6) {  // new address space
      make_space();
    } else if (spaces.size() > 1) {  // full address-space death
      const size_t pick = rng.Below(spaces.size());
      Space& victim = spaces[pick];
      std::vector<hwsim::Frame> frames;
      victim.table->ForEachMapping(
          [&](hwsim::Vaddr, const hwsim::Pte& pte) { frames.push_back(pte.frame); });
      machine.ShootdownSpaceDeath(victim.table.get());
      auditor.DetachSpace(*victim.table);
      for (uint32_t v = 0; v < machine.num_vcpus(); ++v) {
        if (machine.cpu(v).address_space() == victim.table.get()) {
          machine.cpu(v).SwitchAddressSpace(nullptr);
        }
      }
      for (hwsim::Frame f : frames) {
        machine.memory().FreeFrame(f);
      }
      spaces.erase(spaces.begin() + static_cast<ptrdiff_t>(pick));
    }
    if (step % 64 == 63) {
      auditor.Checkpoint("fuzz-periodic");
    }
  }

  FuzzResult out;
  FinishDigest(machine, auditor, out);
  return out;
}

// --- Microkernel: tasks, IPC map/grant items, recursive unmap --------------------

FuzzResult RunUkernelFuzzImpl(uint64_t seed, uint32_t steps, bool incremental_tlb,
                              ukern::IpcPath path) {
  SplitMix64 rng(seed * 2 + 1);
  hwsim::Machine machine(PlatformForSeed(seed), 16ull * 1024 * 1024, VcpusForSeed(seed));
  ukern::Kernel kernel(machine);
  kernel.SetIpcPath(path);
  Auditor::Options opts;
  opts.incremental_tlb = incremental_tlb;
  opts.race_detect = true;  // E20: fuzz histories must stay race-free too
  Auditor auditor(machine, opts);
  auditor.AttachUkernel(kernel);

  struct FuzzTask {
    DomainId task;
    ThreadId thread;
    hwsim::Vaddr next_va;
    std::vector<hwsim::Vaddr> roots;    // provisioned here; only die via our ops
    std::vector<hwsim::Vaddr> derived;  // received via map items (may go stale)
  };
  std::vector<FuzzTask> tasks;
  const uint64_t page = machine.memory().page_size();

  auto make_task = [&]() -> bool {
    auto task = kernel.CreateTask(ThreadId::Invalid());
    if (!task.ok()) {
      return false;
    }
    auto thread =
        kernel.CreateThread(*task, 128, [](ThreadId, ukern::IpcMessage) { return ukern::IpcMessage{}; });
    if (!thread.ok()) {
      return false;
    }
    tasks.push_back(FuzzTask{*task, *thread, 0x0100'0000, {}, {}});
    return true;
  };
  EXPECT_TRUE(make_task()) << "seed " << seed;  // the root task
  EXPECT_TRUE(make_task()) << "seed " << seed;

  auto provision = [&](FuzzTask& t) {
    auto frame = machine.memory().AllocFrame(t.task);
    if (!frame.ok()) {
      return;
    }
    ukern::Task* kt = kernel.FindTask(t.task);
    const hwsim::Vaddr va = t.next_va;
    t.next_va += page;
    EXPECT_EQ(kt->space.Map(va, *frame, hwsim::PtePerms{true, true}), Err::kNone);
    kernel.mapdb().AddRoot(t.task, kt->space.VpnOf(va), *frame);
    t.roots.push_back(va);
  };

  for (uint32_t step = 0; step < steps; ++step) {
    FuzzTask& t = tasks[rng.Below(tasks.size())];
    const uint64_t op = rng.Below(100);
    if (op < 20) {  // provision a fresh root page
      provision(t);
    } else if (op < 45 && !t.roots.empty() && tasks.size() > 1) {  // delegate via IPC
      FuzzTask& dst = tasks[rng.Below(tasks.size())];
      if (dst.task == t.task) {
        continue;
      }
      if (rng.Chance(35)) {
        // A plain short call: register-only, so with the fast path armed
        // this is exactly the traffic the fast Call direct-switches (and with it
        // off, the same rng stream takes the slow path).
        (void)kernel.Call(t.thread, dst.thread, ukern::IpcMessage::Short(step));
        continue;
      }
      const size_t pick = rng.Below(t.roots.size());
      const hwsim::Vaddr snd_va = t.roots[pick];
      const hwsim::Vaddr rcv_va = dst.next_va;
      dst.next_va += page;
      const bool grant = rng.Chance(30);
      ukern::IpcMessage msg;
      msg.map_items.push_back(ukern::MapItem{snd_va, rcv_va, 1, rng.Chance(70), grant});
      const ukern::IpcMessage reply = kernel.Call(t.thread, dst.thread, msg);
      if (reply.status == Err::kNone) {
        dst.derived.push_back(rcv_va);
        if (grant) {
          t.roots.erase(t.roots.begin() + static_cast<ptrdiff_t>(pick));
          // The moved node is a root of dst now; dst may re-delegate it.
          dst.roots.push_back(rcv_va);
          dst.derived.pop_back();
        }
      }
    } else if (op < 60 && !t.roots.empty()) {  // touch through the MMU
      (void)kernel.TouchPage(t.thread, t.roots[rng.Below(t.roots.size())], rng.Chance(50));
    } else if (op < 80) {  // recursive unmap (kernel-mediated IPIs)
      std::vector<hwsim::Vaddr>& pool = (rng.Chance(50) || t.derived.empty()) ? t.roots : t.derived;
      if (pool.empty()) {
        continue;
      }
      const size_t pick = rng.Below(pool.size());
      const hwsim::Vaddr va = pool[pick];
      const bool include_self = rng.Chance(60);
      (void)kernel.Unmap(t.task, va, 1, include_self);
      if (include_self) {
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
      }
    } else if (op < 88) {  // migrate
      machine.SwitchVcpu(static_cast<uint32_t>(rng.Below(machine.num_vcpus())));
    } else if (op < 94 && tasks.size() < 5) {
      (void)make_task();
    } else if (tasks.size() > 2) {  // task death (never the root task)
      const size_t pick = 1 + rng.Below(tasks.size() - 1);
      (void)kernel.DestroyTask(tasks[pick].task);
      tasks.erase(tasks.begin() + static_cast<ptrdiff_t>(pick));
      // Other tasks' derived lists may now name revoked pages; later ops on
      // them fail benignly inside the kernel, which is part of the fuzz.
    }
    if (step % 64 == 63) {
      auditor.Checkpoint("fuzz-periodic");
    }
  }

  FuzzResult out;
  FinishDigest(machine, auditor, out);
  out.fastpath_taken = kernel.fastpath_stats().taken;
  out.fastpath_replywait = kernel.fastpath_stats().replywait_coalesced;
  return out;
}

FuzzResult RunUkernelFuzz(uint64_t seed, uint32_t steps, bool incremental_tlb) {
  return RunUkernelFuzzImpl(seed, steps, incremental_tlb, ukern::IpcPath::kSlow);
}

// E21/E23: the identical op stream with the fast path armed. The digests
// legitimately differ from the fastpath-off bank (fewer cycles are
// charged); what must hold is that each seed is auditor-clean and two-run
// deterministic, exactly like the slow path.
FuzzResult RunUkernelFastpathFuzz(uint64_t seed, uint32_t steps, bool incremental_tlb) {
  return RunUkernelFuzzImpl(seed, steps, incremental_tlb, ukern::IpcPath::kFamily);
}

// E23: the same bank on the E21 Call-only path — the family must be
// disengageable.
FuzzResult RunUkernelCallOnlyFuzz(uint64_t seed, uint32_t steps, bool incremental_tlb) {
  return RunUkernelFuzzImpl(seed, steps, incremental_tlb, ukern::IpcPath::kCallOnly);
}

// --- VMM: domains, grants, transfers, paravirtual PT updates ---------------------

FuzzResult RunVmmFuzz(uint64_t seed, uint32_t steps, bool incremental_tlb) {
  SplitMix64 rng(seed * 2 + 1);
  hwsim::Machine machine(PlatformForSeed(seed), 32ull * 1024 * 1024, VcpusForSeed(seed));
  uvmm::Hypervisor hv(machine);
  Auditor::Options opts;
  opts.incremental_tlb = incremental_tlb;
  opts.race_detect = true;  // E20: fuzz histories must stay race-free too
  Auditor auditor(machine, opts);
  auditor.AttachVmm(hv);

  // Pfn partitions per domain (32 pages each): PT updates map pfns 0..7,
  // access grants share 8..15, transfers flip 16..31 — so a transferred
  // frame is never also reachable through a PTE or an active grant.
  constexpr uvmm::Pfn kMmuPfns = 8;
  constexpr uvmm::Pfn kGrantBase = 8, kGrantPfns = 8;
  constexpr uvmm::Pfn kFlipBase = 16, kFlipPfns = 16;

  struct GrantMap {
    DomainId granter;
    uint32_t ref;
    hwsim::Vaddr va;
  };
  struct Dom {
    DomainId id;
    hwsim::Vaddr next_mmu_va = 0x0010'0000;
    hwsim::Vaddr next_grant_va = 0xE000'0000;
    std::vector<hwsim::Vaddr> mmu_mapped;
    std::vector<GrantMap> grant_maps;  // this domain is the grantee
  };
  std::vector<Dom> doms;
  uint32_t created = 0;
  const uint64_t page = machine.memory().page_size();

  auto make_dom = [&]() -> bool {
    auto id = hv.CreateDomain("fuzz" + std::to_string(created), 32, /*privileged=*/created == 0);
    ++created;
    if (!id.ok()) {
      return false;
    }
    Dom d;
    d.id = *id;
    doms.push_back(std::move(d));
    return true;
  };
  EXPECT_TRUE(make_dom()) << "seed " << seed;
  EXPECT_TRUE(make_dom()) << "seed " << seed;

  auto drop_grants_with = [&](DomainId victim) {
    // Unmap and end every active grant touching the victim, in both roles,
    // before it dies — a granter death with live grantee PTEs is the E5
    // liability defect, which this fuzzer is not probing for.
    for (Dom& d : doms) {
      for (size_t i = d.grant_maps.size(); i-- > 0;) {
        const GrantMap gm = d.grant_maps[i];
        if (gm.granter != victim && d.id != victim) {
          continue;
        }
        (void)hv.HcGrantUnmap(d.id, gm.granter, gm.ref, gm.va);
        (void)hv.HcGrantEnd(gm.granter, gm.ref);
        d.grant_maps.erase(d.grant_maps.begin() + static_cast<ptrdiff_t>(i));
      }
    }
  };

  for (uint32_t step = 0; step < steps; ++step) {
    Dom& d = doms[rng.Below(doms.size())];
    const uint64_t op = rng.Below(100);
    if (op < 20) {  // mmu_update batch: map 1-3 fresh pages
      std::vector<uvmm::MmuUpdate> updates;
      const uint64_t n = 1 + rng.Below(3);
      for (uint64_t i = 0; i < n; ++i) {
        const hwsim::Vaddr va = d.next_mmu_va;
        d.next_mmu_va += page;
        updates.push_back(uvmm::MmuUpdate{va, static_cast<uvmm::Pfn>(rng.Below(kMmuPfns)), true,
                                          rng.Chance(60)});
      }
      if (hv.HcMmuUpdate(d.id, updates) == Err::kNone) {
        for (const auto& u : updates) {
          d.mmu_mapped.push_back(u.va);
        }
      }
    } else if (op < 35 && !d.mmu_mapped.empty()) {  // mmu_update unmap (batched shootdown)
      const size_t pick = rng.Below(d.mmu_mapped.size());
      const hwsim::Vaddr va = d.mmu_mapped[pick];
      d.mmu_mapped.erase(d.mmu_mapped.begin() + static_cast<ptrdiff_t>(pick));
      std::vector<uvmm::MmuUpdate> updates = {uvmm::MmuUpdate{va, 0, false, false}};
      (void)hv.HcMmuUpdate(d.id, updates);
    } else if (op < 48 && !d.mmu_mapped.empty()) {  // touch: fill this vCPU's TLB
      uvmm::Domain* dom = hv.FindDomain(d.id);
      machine.cpu().SetDomain(d.id);
      machine.cpu().SwitchAddressSpace(&dom->space);
      (void)machine.cpu().Translate(d.mmu_mapped[rng.Below(d.mmu_mapped.size())], false, false);
    } else if (op < 58) {  // explicit guest-requested shootdown hypercall
      std::vector<hwsim::Vaddr> vas;
      if (!d.mmu_mapped.empty() && rng.Chance(80)) {
        const uint64_t n = 1 + rng.Below(3);
        for (uint64_t i = 0; i < n; ++i) {
          vas.push_back(d.mmu_mapped[rng.Below(d.mmu_mapped.size())]);
        }
      }
      if (rng.Chance(50)) {
        (void)hv.HcTlbShootdown(d.id, vas);
      } else {  // same flush, batched through a multicall
        std::vector<uvmm::MulticallOp> ops;
        for (hwsim::Vaddr va : vas) {
          uvmm::MulticallOp op_td;
          op_td.kind = uvmm::MulticallOp::Kind::kTlbShootdown;
          op_td.va = va;
          op_td.len = 1;
          ops.push_back(op_td);
        }
        if (!ops.empty()) {
          (void)hv.HcMulticall(d.id, ops);
        }
      }
    } else if (op < 72 && doms.size() > 1) {  // grant access + map
      Dom& grantee = doms[rng.Below(doms.size())];
      if (grantee.id == d.id) {
        continue;
      }
      auto ref = hv.HcGrantAccess(d.id, grantee.id,
                                  kGrantBase + static_cast<uvmm::Pfn>(rng.Below(kGrantPfns)),
                                  /*writable=*/true);
      if (!ref.ok()) {
        continue;
      }
      const hwsim::Vaddr va = grantee.next_grant_va;
      grantee.next_grant_va += page;
      if (hv.HcGrantMap(grantee.id, d.id, *ref, va, rng.Chance(50)) == Err::kNone) {
        grantee.grant_maps.push_back(GrantMap{d.id, *ref, va});
      } else {
        (void)hv.HcGrantEnd(d.id, *ref);
      }
    } else if (op < 80 && !d.grant_maps.empty()) {  // grant unmap + end
      const size_t pick = rng.Below(d.grant_maps.size());
      const GrantMap gm = d.grant_maps[pick];
      d.grant_maps.erase(d.grant_maps.begin() + static_cast<ptrdiff_t>(pick));
      (void)hv.HcGrantUnmap(d.id, gm.granter, gm.ref, gm.va);
      (void)hv.HcGrantEnd(gm.granter, gm.ref);
    } else if (op < 86 && doms.size() > 1) {  // page flip (transfer)
      Dom& peer = doms[rng.Below(doms.size())];
      if (peer.id == d.id) {
        continue;
      }
      auto slot = hv.HcGrantTransferSlot(
          d.id, peer.id, kFlipBase + static_cast<uvmm::Pfn>(rng.Below(kFlipPfns)));
      if (slot.ok()) {
        (void)hv.HcGrantTransfer(peer.id, kFlipBase + static_cast<uvmm::Pfn>(rng.Below(kFlipPfns)),
                                 d.id, *slot);
      }
    } else if (op < 92) {  // migrate
      machine.SwitchVcpu(static_cast<uint32_t>(rng.Below(machine.num_vcpus())));
    } else if (op < 96 && doms.size() < 5) {
      (void)make_dom();
    } else if (doms.size() > 2) {  // domain death (never dom0)
      const size_t pick = 1 + rng.Below(doms.size() - 1);
      const DomainId victim = doms[pick].id;
      drop_grants_with(victim);
      (void)hv.DestroyDomain(victim);
      doms.erase(doms.begin() + static_cast<ptrdiff_t>(pick));
    }
    if (step % 64 == 63) {
      auditor.Checkpoint("fuzz-periodic");
    }
  }

  FuzzResult out;
  FinishDigest(machine, auditor, out);
  return out;
}

// --- The seed bank ----------------------------------------------------------------

constexpr uint64_t kDefaultSeeds = 32;
constexpr uint32_t kSteps = 256;

uint64_t SeedCount() {
  if (const char* env = std::getenv("UKVM_FUZZ_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<uint64_t>(n);
    }
  }
  return kDefaultSeeds;
}

using FuzzFn = FuzzResult (*)(uint64_t, uint32_t, bool);

void RunSeedBank(FuzzFn fn, const char* stack) {
  const uint64_t seeds = SeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    const FuzzResult first = fn(seed, kSteps, /*incremental_tlb=*/true);
    SCOPED_TRACE(std::string(stack) + " seed " + std::to_string(seed));
    for (const std::string& report : first.reports) {
      ADD_FAILURE() << report;
    }
    EXPECT_EQ(first.violations, 0u);
    const FuzzResult second = fn(seed, kSteps, /*incremental_tlb=*/true);
    EXPECT_EQ(first.digest, second.digest) << "nondeterministic run";
  }
}

TEST(FuzzLifecycle, NativeSeedBankCleanAndDeterministic) { RunSeedBank(RunNativeFuzz, "native"); }

TEST(FuzzLifecycle, UkernelSeedBankCleanAndDeterministic) {
  RunSeedBank(RunUkernelFuzz, "ukernel");
}

// E21/E23: the same bank with the IPC fast path armed, in both feature
// configurations (full family and the E21 Call-only subset) — every seed
// must stay auditor-clean and two-run deterministic, and each configuration
// must actually exercise its paths (otherwise this test proves nothing).
TEST(FuzzLifecycle, UkernelFastpathSeedBankCleanAndDeterministic) {
  const uint64_t seeds = SeedCount();
  struct Config {
    const char* label;
    FuzzFn fn;
  };
  const Config configs[] = {
      {"family", RunUkernelFastpathFuzz},
      {"call-only", RunUkernelCallOnlyFuzz},
  };
  for (const Config& config : configs) {
    uint64_t taken = 0;
    uint64_t replywait = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      SCOPED_TRACE(std::string("ukernel-fastpath-") + config.label + " seed " +
                   std::to_string(seed));
      const FuzzResult first = config.fn(seed, kSteps, /*incremental_tlb=*/true);
      for (const std::string& report : first.reports) {
        ADD_FAILURE() << report;
      }
      EXPECT_EQ(first.violations, 0u);
      const FuzzResult second = config.fn(seed, kSteps, /*incremental_tlb=*/true);
      EXPECT_EQ(first.digest, second.digest) << "nondeterministic run";
      taken += first.fastpath_taken;
      replywait += first.fastpath_replywait;
    }
    EXPECT_GT(taken, 0u) << config.label
                         << ": the fast path never fired across the whole bank";
    if (std::string(config.label) == "family") {
      EXPECT_GT(replywait, 0u) << "reply-wait coalescing never fired across the bank";
    } else {
      EXPECT_EQ(replywait, 0u) << "call-only must never coalesce";
    }
  }
}

TEST(FuzzLifecycle, VmmSeedBankCleanAndDeterministic) { RunSeedBank(RunVmmFuzz, "vmm"); }

// --- E19 crash-recovery fuzz ------------------------------------------------------
//
// Seeded sequences of block writes, read-verifies, backend kills (including
// scheduled mid-flight kills that land inside a request's completion wait,
// some followed by a restart at once, before the orphaned completion can
// run), and reconnects, against all three crash-recoverable storage
// stacks. Per seed:
//  1. zero-loss / zero-dup: a per-lba model tracks every write that was
//     acknowledged OR journaled; after the final reconnect the disk must
//     match the model exactly, every journal must be empty, and the
//     stack-owned recovery log's applied_total must equal the sum of
//     acknowledged write chunks (a lost write or a double-applied replay
//     breaks the equality);
//  2. auditor-clean: no isolation invariant — including the E19
//     dead-domain-reference rules — fires at any checkpoint;
//  3. byte-identical determinism: two runs of a seed digest identically;
//  4. leak-free: the event-channel ports (and on the microkernel the free
//     frames) end where they were after boot, and the client's in-use
//     grants exceed their post-boot count by at most the persistent
//     cache's capacity.

// Leak probes, read after boot and at the seed's end: counts that must come
// back exactly, and the client's in-use grants. Microkernel: the free
// frames (it has no grants). VMM: the guest's and Dom0's ports, and the
// guest's grants.
struct Leaks {
  std::vector<uint64_t> exact;
  uint64_t client_grants = 0;
};

Leaks LeaksOf(ustack::UkernelStack& stack) {
  return {{stack.machine().memory().free_frames()}, 0};
}

// The blkfront's persistent cache holds one grant per pool page and
// direction: 8 pages x 2.
constexpr uint64_t kPersistentCacheCapacity = 16;

uint64_t GrantsMadeBy(uvmm::Hypervisor& hv, DomainId granter) {
  uint64_t n = 0;
  hv.gnttab().ForEachActive([&](const uvmm::GrantTable::GrantView& g) {
    n += g.granter == granter ? 1 : 0;
  });
  return n;
}

Leaks LeaksOf(ustack::VmmStack& stack) {
  const DomainId guest = stack.guest(0).domain;
  return {{stack.hv().evtchn().ports_of(guest), stack.hv().evtchn().ports_of(stack.dom0())},
          GrantsMadeBy(stack.hv(), guest)};
}

// The three storage stacks differ only in how the backend dies and comes
// back (a task, a whole VM, or a driver inside the surviving Dom0): one
// body fuzzes each through the stacks' shared service interface.
template <typename StackT>
FuzzResult RunRecoveryFuzzOn(StackT& stack, uint64_t seed, uint32_t steps) {
  SplitMix64 rng(seed * 2 + 1);
  constexpr uint64_t kLbas = 40;  // well inside every stack's slice
  std::map<uint64_t, uint8_t> model;  // lba -> fill byte of the last
                                      // acknowledged-or-journaled write
  hwsim::Machine& machine = stack.machine();
  minios::BlockDevice& device = stack.guest_block(0);
  const minios::BlkJournal& journal = stack.guest_journal(0);
  const uint32_t block_size = device.block_size();
  const auto kill_storage = [&stack] { (void)stack.KillStorage(); };
  bool alive = true;
  std::vector<uint8_t> block(block_size);
  std::vector<uint8_t> back(block_size);
  const Leaks boot = LeaksOf(stack);

  enum class Kill { kNone, kThenDrain, kThenRestart };
  auto do_write = [&](uint64_t lba, Kill kill) {
    const uint8_t fill = static_cast<uint8_t>(rng.Next() & 0xff);
    std::fill(block.begin(), block.end(), fill);
    bool killed = false;
    hwsim::Machine::EventId kill_event = 0;
    if (kill != Kill::kNone) {
      // Land inside the request's completion wait (disk fixed latency is
      // 100us) or just after it — both interleavings must preserve the
      // exactly-once invariant.
      const uint64_t delay = (10 + rng.Below(120)) * hwsim::kCyclesPerUs;
      kill_event = machine.ScheduleAfter(delay, [&] {
        killed = true;
        kill_storage();
      });
    }
    const size_t depth_before = journal.size();
    const Err err = device.Write(lba, 1, block);
    // A write is durable-eventually iff it was acknowledged or journaled;
    // journaled writes replay in id order before any post-restart write can
    // be issued, so last-writer-wins ordering matches issue order.
    if (err == Err::kNone || journal.size() > depth_before) {
      model[lba] = fill;
    }
    if (kill == Kill::kThenDrain) {
      // Drain the kill event (if the write returned first) and any orphaned
      // completion the dead backend still had in flight — the
      // applied-but-unacknowledged interleaving.
      machine.RunUntilIdle();
      alive = false;
    } else if (kill == Kill::kThenRestart) {
      // Restart at once: the orphaned completion never runs, so whatever
      // the kill left in flight must be released by the kill itself.
      if (!killed) {
        machine.CancelEvent(kill_event);
        kill_storage();
      }
      EXPECT_EQ(stack.RestartStorage(), Err::kNone) << "seed " << seed;
      EXPECT_EQ(journal.size(), 0u) << "seed " << seed;
    }
  };

  for (uint32_t step = 0; step < steps; ++step) {
    const uint64_t op = rng.Below(100);
    const uint64_t lba = rng.Below(kLbas);
    if (op < 40) {  // plain write
      do_write(lba, Kill::kNone);
    } else if (op < 55 && alive) {  // read-verify against the model
      const auto it = model.find(lba);
      if (it != model.end() && device.Read(lba, 1, back) == Err::kNone) {
        EXPECT_EQ(back[0], it->second) << "seed " << seed << " lba " << lba;
        EXPECT_EQ(back[block_size - 1], it->second) << "seed " << seed;
      }
    } else if (op < 60 && alive) {  // mid-flight kill under a write
      do_write(lba, Kill::kThenDrain);
    } else if (op < 65 && alive) {  // mid-flight kill, restart at once
      do_write(lba, Kill::kThenRestart);
    } else if (op < 75 && alive) {  // quiescent kill
      kill_storage();
      alive = false;
    } else if (op < 90 && !alive) {  // reconnect
      EXPECT_EQ(stack.RestartStorage(), Err::kNone) << "seed " << seed;
      alive = true;
      EXPECT_EQ(journal.size(), 0u) << "seed " << seed;
    } else {  // let completions / upcalls drain
      machine.RunFor((1 + rng.Below(200)) * hwsim::kCyclesPerUs);
    }
    if (step % 32 == 31 && stack.auditor() != nullptr) {
      stack.auditor()->Checkpoint("recovery-fuzz-periodic");
    }
  }

  // Final reconnect, then verify the three properties.
  if (!alive) {
    EXPECT_EQ(stack.RestartStorage(), Err::kNone) << "seed " << seed;
  }
  EXPECT_EQ(journal.size(), 0u) << "seed " << seed;
  EXPECT_EQ(stack.blk_store().applied_total(), journal.acked_ok()) << "seed " << seed;

  Digest d;
  d.Mix(machine.Now());
  for (const auto& [lba, fill] : model) {
    EXPECT_EQ(device.Read(lba, 1, back), Err::kNone) << "seed " << seed << " lba " << lba;
    EXPECT_EQ(back[0], fill) << "seed " << seed << " lba " << lba;
    EXPECT_EQ(back[block_size - 1], fill) << "seed " << seed << " lba " << lba;
    d.Mix(lba);
    d.Mix(fill);
  }
  d.Mix(stack.blk_store().applied_total());
  d.Mix(journal.acked_ok());
  d.Mix(stack.guest_blk_conn(0).reconnects());
  d.Mix(journal.size());

  const Leaks end = LeaksOf(stack);
  EXPECT_EQ(end.exact, boot.exact) << "seed " << seed;
  EXPECT_GE(end.client_grants, boot.client_grants) << "seed " << seed;
  EXPECT_LE(end.client_grants, boot.client_grants + kPersistentCacheCapacity) << "seed " << seed;

  FuzzResult out;
  out.digest = d.value;
  if (ucheck::Auditor* auditor = stack.auditor(); auditor != nullptr) {
    auditor->Checkpoint("recovery-fuzz-final");
    out.violations = auditor->violation_count();
    out.reports = auditor->ViolationReports();
  }
  return out;
}

FuzzResult RunUkernelRecoveryFuzzImpl(uint64_t seed, uint32_t steps, ukern::IpcPath path) {
  ustack::UkernelStack::Config config;
  config.race_detect = true;  // E20: crash/replay histories must stay race-free
  config.ipc_path = path;
  ustack::UkernelStack stack(config);
  FuzzResult out = RunRecoveryFuzzOn(stack, seed, steps);
  out.fastpath_taken = stack.kernel().fastpath_stats().taken;
  out.fastpath_replywait = stack.kernel().fastpath_stats().replywait_coalesced;
  return out;
}

FuzzResult RunUkernelRecoveryFuzz(uint64_t seed, uint32_t steps, bool) {
  return RunUkernelRecoveryFuzzImpl(seed, steps, ukern::IpcPath::kSlow);
}

// E21/E23: crash/replay histories with the fast path armed. Every syscall
// that reaches the block port rides the fast path; kills and journal replays
// must leave each seed clean and two-run deterministic all the same.
FuzzResult RunUkernelFastpathRecoveryFuzz(uint64_t seed, uint32_t steps, bool) {
  return RunUkernelRecoveryFuzzImpl(seed, steps, ukern::IpcPath::kFamily);
}

FuzzResult RunUkernelCallOnlyRecoveryFuzz(uint64_t seed, uint32_t steps, bool) {
  return RunUkernelRecoveryFuzzImpl(seed, steps, ukern::IpcPath::kCallOnly);
}

FuzzResult RunVmmRecoveryFuzz(uint64_t seed, uint32_t steps, bool parallax) {
  ustack::VmmStack::Config config;
  config.parallax_storage = parallax;
  config.race_detect = true;  // E20: crash/replay histories must stay race-free
  // Even seeds keep grants mapped across requests, so every replaced
  // backend must release its persistent mappings.
  config.persistent_grants = seed % 2 == 0;
  ustack::VmmStack stack(config);
  return RunRecoveryFuzzOn(stack, seed, steps);
}

FuzzResult RunVmmParallaxRecoveryFuzz(uint64_t seed, uint32_t steps, bool) {
  return RunVmmRecoveryFuzz(seed, steps, /*parallax=*/true);
}
FuzzResult RunVmmDom0RecoveryFuzz(uint64_t seed, uint32_t steps, bool) {
  return RunVmmRecoveryFuzz(seed, steps, /*parallax=*/false);
}

// Recovery fuzz: each seed boots a full stack (twice, for the determinism
// check), so the default bank is smaller than the memory-path one; a longer
// UKVM_FUZZ_SEEDS sweep scales it proportionally.
constexpr uint32_t kRecoverySteps = 96;

void RunRecoverySeedBank(FuzzFn fn, const char* stack) {
  const uint64_t seeds = std::max<uint64_t>(4, SeedCount() / 4);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(std::string(stack) + " seed " + std::to_string(seed));
    const FuzzResult first = fn(seed, kRecoverySteps, false);
    for (const std::string& report : first.reports) {
      ADD_FAILURE() << report;
    }
    EXPECT_EQ(first.violations, 0u);
    const FuzzResult second = fn(seed, kRecoverySteps, false);
    EXPECT_EQ(first.digest, second.digest) << "nondeterministic run";
  }
}

TEST(FuzzRecovery, UkernelSeedBankCleanAndDeterministic) {
  RunRecoverySeedBank(RunUkernelRecoveryFuzz, "ukernel");
}

TEST(FuzzRecovery, UkernelFastpathSeedBankCleanAndDeterministic) {
  const uint64_t seeds = std::max<uint64_t>(4, SeedCount() / 4);
  struct Config {
    const char* label;
    FuzzFn fn;
    bool family;
  };
  const Config configs[] = {
      {"family", RunUkernelFastpathRecoveryFuzz, true},
      {"call-only", RunUkernelCallOnlyRecoveryFuzz, false},
  };
  for (const Config& config : configs) {
    uint64_t taken = 0;
    uint64_t replywait = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      SCOPED_TRACE(std::string("ukernel-fastpath-") + config.label + " seed " +
                   std::to_string(seed));
      const FuzzResult first = config.fn(seed, kRecoverySteps, false);
      for (const std::string& report : first.reports) {
        ADD_FAILURE() << report;
      }
      EXPECT_EQ(first.violations, 0u);
      const FuzzResult second = config.fn(seed, kRecoverySteps, false);
      EXPECT_EQ(first.digest, second.digest) << "nondeterministic run";
      taken += first.fastpath_taken;
      replywait += first.fastpath_replywait;
    }
    EXPECT_GT(taken, 0u) << config.label
                         << ": the fast path never fired across the whole bank";
    if (config.family) {
      EXPECT_GT(replywait, 0u) << "reply-wait coalescing never fired across the bank";
    } else {
      EXPECT_EQ(replywait, 0u) << "call-only must never coalesce";
    }
  }
}

TEST(FuzzRecovery, VmmParallaxSeedBankCleanAndDeterministic) {
  RunRecoverySeedBank(RunVmmParallaxRecoveryFuzz, "vmm-parallax");
}

TEST(FuzzRecovery, VmmDom0SeedBankCleanAndDeterministic) {
  RunRecoverySeedBank(RunVmmDom0RecoveryFuzz, "vmm-dom0");
}

// The incremental checkpoint sweep must be a pure optimisation: identical
// per-rule violation counts on the same fuzz history, never auditing more
// entries than the full sweep per run, and strictly fewer across the bank
// (a single flush-heavy history can legitimately tie — every entry at
// every checkpoint is new since the last one) (E18 ROADMAP item).
TEST(FuzzLifecycle, IncrementalTlbAuditMatchesFullSweep) {
  const FuzzFn fns[] = {RunNativeFuzz, RunUkernelFuzz, RunVmmFuzz};
  const char* names[] = {"native", "ukernel", "vmm"};
  uint64_t total_incremental = 0;
  uint64_t total_full = 0;
  for (size_t i = 0; i < 3; ++i) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(names[i]) + " seed " + std::to_string(seed));
      const FuzzResult incremental = fns[i](seed, kSteps, /*incremental_tlb=*/true);
      const FuzzResult full = fns[i](seed, kSteps, /*incremental_tlb=*/false);
      EXPECT_EQ(incremental.by_rule, full.by_rule);
      EXPECT_EQ(incremental.violations, full.violations);
      EXPECT_LE(incremental.tlb_audited, full.tlb_audited);
      total_incremental += incremental.tlb_audited;
      total_full += full.tlb_audited;
    }
  }
  EXPECT_LT(total_incremental, total_full);
}

}  // namespace
