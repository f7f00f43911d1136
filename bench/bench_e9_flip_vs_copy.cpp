// E9 — page flip vs copy: the crossover (figure).
//
// Cherkasova & Gardner's observation (cited in §3.2) that Dom0 CPU cost is
// "proportional to the number of page-flipping operations ... irrespective
// of the message size" holds because a flip's cost has no per-byte term.
// This bench moves N bytes from one domain to another by flipping and by
// grant-copying, sweeping N, and locates the crossover.

#include <cstdio>
#include <vector>

#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/vmm/hypervisor.h"

namespace {

using ukvm::DomainId;

struct Setup {
  hwsim::Machine machine{hwsim::MakeX86Platform(), 32 << 20};
  std::unique_ptr<uvmm::Hypervisor> hv;
  DomainId src, dst;

  Setup() {
    hv = std::make_unique<uvmm::Hypervisor>(machine);
    src = *hv->CreateDomain("src", 1024, true);
    dst = *hv->CreateDomain("dst", 1024, false);
  }
};

}  // namespace

int main() {
  uharness::PrintHeading("E9", "moving N bytes between domains: flip vs copy");

  Setup s;
  auto& hv = *s.hv;
  const auto page = static_cast<uint32_t>(s.machine.memory().page_size());

  uharness::Table table("cycles to move N bytes (one-way)",
                        {"bytes", "pages", "copy (per-pkt grants)", "copy (persistent grants)",
                         "page-flip", "cheapest"});

  // Persistent grants for the second copy variant: set up once, reused for
  // every transfer (the optimisation that later made copy the Xen default).
  std::vector<uint32_t> persistent_refs;
  for (uint32_t p = 0; p < 16; ++p) {
    persistent_refs.push_back(*hv.HcGrantAccess(s.dst, s.src, 600 + p, /*writable=*/true));
  }

  std::vector<uint32_t> sizes = {64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
  for (uint32_t bytes : sizes) {
    const uint32_t pages = (bytes + page - 1) / page;

    // Copy, Xen-2.x style: grant + copy + end-grant per page.
    uint64_t copy_cycles = 0;
    {
      const uint64_t t0 = s.machine.Now();
      uint32_t left = bytes;
      for (uint32_t p = 0; p < pages; ++p) {
        auto ref = hv.HcGrantAccess(s.dst, s.src, /*pfn=*/100 + p, /*writable=*/true);
        const uint32_t chunk = std::min(left, page);
        (void)hv.HcGrantCopy(s.src, s.dst, *ref, 0, /*local_pfn=*/100 + p, 0, chunk,
                             /*to_grant=*/true);
        left -= chunk;
        (void)hv.HcGrantEnd(s.dst, *ref);
      }
      copy_cycles = s.machine.Now() - t0;
    }

    // Copy with persistent grants: just the copy hypercall per page.
    uint64_t persist_cycles = 0;
    {
      const uint64_t t0 = s.machine.Now();
      uint32_t left = bytes;
      for (uint32_t p = 0; p < pages; ++p) {
        const uint32_t chunk = std::min(left, page);
        (void)hv.HcGrantCopy(s.src, s.dst, persistent_refs[p], 0, 100 + p, 0, chunk, true);
        left -= chunk;
      }
      persist_cycles = s.machine.Now() - t0;
    }

    // Flip path: one slot advertisement + one transfer per page.
    uint64_t flip_cycles = 0;
    {
      const uint64_t t0 = s.machine.Now();
      for (uint32_t p = 0; p < pages; ++p) {
        auto slot = hv.HcGrantTransferSlot(s.dst, s.src, 200 + p);
        (void)hv.HcGrantTransfer(s.src, 300 + p, s.dst, *slot);
      }
      flip_cycles = s.machine.Now() - t0;
    }

    const char* cheapest = "flip";
    if (copy_cycles <= flip_cycles && copy_cycles <= persist_cycles) {
      cheapest = "copy";
    } else if (persist_cycles <= flip_cycles) {
      cheapest = "copy (persistent)";
    }
    table.AddRow({uharness::FmtInt(bytes), uharness::FmtInt(pages),
                  uharness::FmtInt(copy_cycles), uharness::FmtInt(persist_cycles),
                  uharness::FmtInt(flip_cycles), cheapest});
  }
  table.Print();
  std::printf(
      "Ablation note: with Xen-2.x per-packet grant management, flipping wins (and it\n"
      "was the default); once grants persist, the copy is cheaper at every size the\n"
      "NIC can deliver — which is why later Xen abandoned flipping. Either way the\n"
      "flip's own cost never depends on the payload.\n");

  // Per-packet view at network payload sizes (CG05's angle): the flip cost
  // is literally constant.
  uharness::Table per_pkt("per-packet cost at NIC payload sizes",
                          {"payload B", "flip cycles", "copy cycles",
                           "flip cost varies with size?"});
  uint64_t first_flip = 0;
  for (uint32_t bytes : {64u, 512u, 1024u, 1460u}) {
    const uint64_t t0 = s.machine.Now();
    auto slot = hv.HcGrantTransferSlot(s.dst, s.src, 400);
    (void)hv.HcGrantTransfer(s.src, 500, s.dst, *slot);
    const uint64_t flip = s.machine.Now() - t0;
    if (first_flip == 0) {
      first_flip = flip;
    }
    const uint64_t t1 = s.machine.Now();
    auto ref = hv.HcGrantAccess(s.dst, s.src, 401, true);
    (void)hv.HcGrantCopy(s.src, s.dst, *ref, 0, 501, 0, bytes, true);
    (void)hv.HcGrantEnd(s.dst, *ref);
    const uint64_t copy = s.machine.Now() - t1;
    per_pkt.AddRow({uharness::FmtInt(bytes), uharness::FmtInt(flip), uharness::FmtInt(copy),
                    flip == first_flip ? "no (flat)" : "YES (bug!)"});
  }
  per_pkt.Print();

  std::printf(
      "\nShape check: copy wins below ~a page (per-byte cost small, flip's fixed\n"
      "PTE+shootdown cost large); flips only pay off for page-multiple bulk data.\n"
      "At NIC payload sizes the flip cost is exactly flat — CG05's 'irrespective of\n"
      "the message size'.\n");
  uharness::WriteJsonIfRequested("E9");
  return 0;
}
