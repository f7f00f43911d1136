// E12 — ablation: the paravirtual MMU tax and hypercall batching.
//
// Paper §2.2, primitive 5: "resource allocation within the VM (e.g., via
// hardware page-table virtualisation)". A paravirtual guest cannot write a
// PTE; it must ask the hypervisor, which validates every update. Xen's
// mitigation is batching: one mmu_update hypercall carries many updates.
// This bench maps N pages (a) natively, (b) one hypercall per update, and
// (c) in one batched hypercall, and reports the per-page cost.

#include <cstdio>
#include <vector>

#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/vmm/hypervisor.h"

int main() {
  uharness::PrintHeading("E12", "page-table update cost: native vs paravirtual (batched or not)");

  uharness::Table table("cycles per PTE update when mapping N pages",
                        {"N pages", "native pte write", "mmu_update (1/call)",
                         "mmu_update (batched)", "paravirt tax (batched)"});

  for (uint32_t n : {1u, 8u, 64u, 256u, 1024u}) {
    // (a) Native: the kernel writes PTEs directly.
    uint64_t native_cost = 0;
    {
      hwsim::Machine machine(hwsim::MakeX86Platform(), 16 << 20);
      hwsim::PageTable pt(12, 32);
      machine.cpu().SetDomain(ukvm::DomainId(1));
      const uint64_t t0 = machine.Now();
      for (uint32_t i = 0; i < n; ++i) {
        machine.Charge(machine.costs().pte_write);
        (void)pt.Map(uint64_t{i} * 4096, i, hwsim::PtePerms{true, true});
      }
      native_cost = (machine.Now() - t0) / n;
    }

    // (b) Paravirtual, one hypercall per update.
    uint64_t single_cost = 0;
    {
      hwsim::Machine machine(hwsim::MakeX86Platform(), 16 << 20);
      uvmm::Hypervisor hv(machine);
      auto guest = hv.CreateDomain("g", n + 8, false);
      const uint64_t t0 = machine.Now();
      for (uint32_t i = 0; i < n; ++i) {
        std::vector<uvmm::MmuUpdate> one = {{uint64_t{i} * 4096, i, true, true}};
        (void)hv.HcMmuUpdate(*guest, one);
      }
      single_cost = (machine.Now() - t0) / n;
    }

    // (c) Paravirtual, one batched hypercall.
    uint64_t batched_cost = 0;
    {
      hwsim::Machine machine(hwsim::MakeX86Platform(), 16 << 20);
      uvmm::Hypervisor hv(machine);
      auto guest = hv.CreateDomain("g", n + 8, false);
      std::vector<uvmm::MmuUpdate> batch;
      batch.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        batch.push_back({uint64_t{i} * 4096, i, true, true});
      }
      const uint64_t t0 = machine.Now();
      (void)hv.HcMmuUpdate(*guest, batch);
      batched_cost = (machine.Now() - t0) / n;
    }

    table.AddRow({uharness::FmtInt(n), uharness::FmtInt(native_cost),
                  uharness::FmtInt(single_cost), uharness::FmtInt(batched_cost),
                  uharness::FmtDouble(static_cast<double>(batched_cost) /
                                      static_cast<double>(native_cost)) +
                      "x"});
  }
  table.Print();

  std::printf(
      "\nShape check: unbatched paravirtual updates pay a full hypercall each and are\n"
      "~20-30x native; batching amortises the entry/exit to near the pure validation\n"
      "cost, converging to a constant per-page tax (validation never disappears —\n"
      "that is the price of keeping the guest out of ring 0).\n");
  uharness::WriteJsonIfRequested("E12");
  return 0;
}
