// E10 — ablation: Liedtke's small address spaces [Lie95].
//
// The paper cites Liedtke's Pentium address-space multiplexing as prior art
// ([Lie95]): by parking small tasks inside one page table behind distinct
// segment bases, an IPC-heavy system avoids the page-table reload and TLB
// flush on every switch. This bench measures the round-trip IPC cost and
// the induced TLB misses with and without small spaces, on platforms with
// and without segmentation.

#include <cstdio>

#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/ukernel/kernel.h"

namespace {

using ukvm::Err;
using ukvm::ThreadId;

struct World {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ThreadId client;
  ThreadId server;
  ukvm::DomainId client_task;
  ukvm::DomainId server_task;

  explicit World(const hwsim::Platform& platform) : machine(platform, 16 << 20) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    auto MakeSide = [&](hwsim::Vaddr window, ukern::IpcHandler handler, ukvm::DomainId* out) {
      auto task = kernel->CreateTask(ThreadId::Invalid());
      auto thread = kernel->CreateThread(*task, 128, std::move(handler));
      ukern::Task* t = kernel->FindTask(*task);
      for (int i = 0; i < 8; ++i) {
        auto frame = machine.memory().AllocFrame(*task);
        const hwsim::Vaddr va = window + static_cast<uint64_t>(i) * machine.memory().page_size();
        (void)t->space.Map(va, *frame, hwsim::PtePerms{true, true});
        kernel->mapdb().AddRoot(*task, t->space.VpnOf(va), *frame);
      }
      (void)kernel->SetRecvBuffer(*thread, window, 8 * 4096);
      *out = *task;
      return *thread;
    };
    server = MakeSide(0x10000, [](ThreadId, ukern::IpcMessage) { return ukern::IpcMessage{}; },
                      &server_task);
    client = MakeSide(0x20000, nullptr, &client_task);
  }

  // Mean cycles and TLB misses for one call round trip, with the client
  // touching its working set between calls (what makes flushes expensive).
  void Measure(int rounds, uint64_t* cycles_out, uint64_t* misses_out) {
    (void)kernel->ActivateThread(client);
    uint64_t cycles = 0;
    const uint64_t misses0 = machine.cpu().tlb().misses();
    for (int r = 0; r < rounds; ++r) {
      // The client touches its 8-page working set (through the TLB).
      for (int p = 0; p < 8; ++p) {
        (void)machine.cpu().Translate(0x20000 + static_cast<uint64_t>(p) * 4096, false, true);
      }
      const uint64_t t0 = machine.Now();
      (void)kernel->Call(client, server, ukern::IpcMessage::Short(1));
      cycles += machine.Now() - t0;
    }
    *cycles_out = cycles / static_cast<uint64_t>(rounds);
    *misses_out = (machine.cpu().tlb().misses() - misses0) / static_cast<uint64_t>(rounds);
  }
};

}  // namespace

int main() {
  uharness::PrintHeading("E10", "small address spaces [Lie95]: IPC without the TLB flush");

  uharness::Table table("round-trip IPC + 8-page working set, per configuration",
                        {"platform", "small spaces", "cycles/round", "TLB misses/round",
                         "speedup"});

  for (const auto& platform :
       {hwsim::MakeX86Platform(), hwsim::MakeArmPlatform(), hwsim::MakeMipsPlatform()}) {
    uint64_t base_cycles = 0, base_misses = 0;
    {
      World world(platform);
      world.Measure(200, &base_cycles, &base_misses);
      table.AddRow({platform.name, "off", uharness::FmtInt(base_cycles),
                    uharness::FmtInt(base_misses), "1.00x"});
    }
    {
      World world(platform);
      const Err err_a = world.kernel->SetSmallSpace(world.client_task, true);
      const Err err_b = world.kernel->SetSmallSpace(world.server_task, true);
      if (err_a != Err::kNone || err_b != Err::kNone) {
        table.AddRow({platform.name, "unsupported (no segmentation)", "-", "-", "-"});
        continue;
      }
      uint64_t cycles = 0, misses = 0;
      world.Measure(200, &cycles, &misses);
      table.AddRow({platform.name, "on", uharness::FmtInt(cycles), uharness::FmtInt(misses),
                    uharness::FmtDouble(static_cast<double>(base_cycles) /
                                        static_cast<double>(cycles)) +
                        "x"});
    }
  }
  table.Print();

  std::printf(
      "\nShape check: on x86 (untagged TLB + segmentation) small spaces remove both\n"
      "the page-table reloads and the refill misses the flush causes, a solid IPC\n"
      "speedup — the optimisation the paper's [Lie95] citation refers to. ARM has\n"
      "no segmentation, but its FCSE PID relocation gives small spaces all the same\n"
      "and wins the most, since its flush is the dearest. On a tagged-TLB platform\n"
      "(MIPS) there is little to win, and with neither mechanism small spaces do not\n"
      "exist. Same single-primitive API in every case.\n");
  uharness::WriteJsonIfRequested("E10");
  return 0;
}
