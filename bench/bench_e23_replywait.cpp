// E23 — completing the Liedtke fast-path family (gating bench).
//
// E21 built the fast path for Call only. This bench measures the rest of
// the family against that baseline and *gates*:
//
//   1. reply-wait coalescing: the server's handler return IS its
//      reply-and-wait syscall, so a register-only reply from a living
//      server skips the second kernel entry — >= 1.3x vs the E21
//      Call-only fast path on at least two platform shapes where the trap
//      sequence dominates (x86 flat same-task, ARM FCSE small spaces,
//      MIPS tagged TLB same-task);
//   2. register-only Send and Notify ride the fast stubs (strictly
//      cheaper than the slow path, with the fast counters moving);
//   3. the pager's fault IPC takes the fast stubs (strictly cheaper than
//      the Call-only configuration, which still reflects faults through
//      the full trap sequence);
//   4. the per-vCPU pinned string window amortises the temp-map PTE
//      write across a same-page burst: exactly (N-1) * pte_write saved
//      against the same burst alternating between two source pages, where
//      the window misses every time;
//   5. a full-family stack run stays auditor- and race-detector-clean
//      with a balanced crossing ledger and nonzero new-path counters.
//
// Exits non-zero if any gate fails. bench_e21_ipc_fastpath pins the
// Call-only path and remains the E21 historical record.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/stacks/ukernel_stack.h"
#include "src/ukernel/kernel.h"

namespace {

using ukern::IpcPath;
using ukvm::Err;
using ukvm::ThreadId;

constexpr hwsim::Vaddr kClientWin = 0x100000;
constexpr hwsim::Vaddr kServerWin = 0x200000;

// The E21 PingPong harness, extended with a same-task shape: with client
// and server threads sharing one address space, every switch is free and
// the round trip is pure trap arithmetic — the cleanest view of what
// coalescing removes.
struct PingPong {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ukvm::DomainId client_task;
  ukvm::DomainId server_task;
  ThreadId client;
  ThreadId server;

  PingPong(const hwsim::Platform& platform, bool same_task, bool small, IpcPath path)
      : machine(platform, 16 << 20) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    auto echo = [](ThreadId, ukern::IpcMessage msg) {
      ukern::IpcMessage reply;
      reply.regs[0] = msg.regs[0];
      reply.reg_count = 1;
      return reply;
    };
    auto make_side = [&](ukvm::DomainId task, hwsim::Vaddr window, ukern::IpcHandler handler) {
      auto thread = kernel->CreateThread(task, 128, std::move(handler));
      ukern::Task* t = kernel->FindTask(task);
      for (int i = 0; i < 4; ++i) {
        auto frame = machine.memory().AllocFrame(task);
        const hwsim::Vaddr va = window + static_cast<uint64_t>(i) * machine.memory().page_size();
        (void)t->space.Map(va, *frame, hwsim::PtePerms{true, true});
        kernel->mapdb().AddRoot(task, t->space.VpnOf(va), *frame);
      }
      (void)kernel->SetRecvBuffer(*thread, window,
                                  4 * static_cast<uint32_t>(machine.memory().page_size()));
      return *thread;
    };
    server_task = *kernel->CreateTask(ThreadId::Invalid());
    client_task = same_task ? server_task : *kernel->CreateTask(ThreadId::Invalid());
    server = make_side(server_task, kServerWin, echo);
    client = make_side(client_task, kClientWin, nullptr);
    if (small) {
      (void)kernel->SetSmallSpace(server_task, true);
      if (client_task != server_task) {
        (void)kernel->SetSmallSpace(client_task, true);
      }
    }
    (void)RoundTrip(0);  // settle contexts: steady-state switches from here on
  }

  // A string round trip sends `bytes` from `src` in the client's window.
  uint64_t RoundTrip(uint32_t bytes, hwsim::Vaddr src = kClientWin) {
    ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
    if (bytes > 0) {
      msg.has_string = true;
      msg.string = ukern::StringItem{src, bytes};
    }
    const uint64_t t0 = machine.Now();
    ukern::IpcMessage reply = kernel->Call(client, server, msg);
    if (reply.status != Err::kNone) {
      std::fprintf(stderr, "e23 round trip failed: %s\n", ukvm::ErrName(reply.status));
    }
    return machine.Now() - t0;
  }
};

// The pager harness: faults at fresh pages, one frame mapped per fault.
struct Paged {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ukvm::DomainId pager_task;
  ThreadId thread;

  explicit Paged(IpcPath path) : machine(hwsim::MakeX86Platform(), 16 << 20) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    pager_task = *kernel->CreateTask(ThreadId::Invalid());
    auto pager = kernel->CreateThread(
        pager_task, 255, [this](ThreadId, ukern::IpcMessage msg) {
          const hwsim::Vaddr fault_va = msg.regs[1];
          auto frame = machine.memory().AllocFrame(pager_task);
          ukern::Task* t = kernel->FindTask(pager_task);
          const hwsim::Vaddr src = machine.memory().FrameBase(*frame);
          (void)t->space.Map(src, *frame, hwsim::PtePerms{true, true});
          kernel->mapdb().AddRoot(pager_task, t->space.VpnOf(src), *frame);
          ukern::IpcMessage reply;
          reply.map_items.push_back(ukern::MapItem{
              src, fault_va & ~(machine.memory().page_size() - 1), 1, true, false});
          return reply;
        });
    auto task = kernel->CreateTask(*pager);
    thread = *kernel->CreateThread(*task, 100, nullptr);
  }

  uint64_t FaultMean(int n) {
    const uint64_t page = machine.memory().page_size();
    const uint64_t t0 = machine.Now();
    for (int i = 0; i < n; ++i) {
      const hwsim::Vaddr va = 0x500000 + static_cast<uint64_t>(i) * page;
      if (kernel->TouchPage(thread, va, /*write=*/true) != Err::kNone) {
        std::fprintf(stderr, "e23: fault resolution failed\n");
      }
    }
    return (machine.Now() - t0) / static_cast<uint64_t>(n);
  }
};

// Gate 5: a full-family stack run stays checker-clean and actually
// exercises the new paths (delta over the syscall loop: boot traffic runs
// before the auditor attaches).
bool FamilyRunIsClean() {
  ustack::UkernelStack::Config config;
  config.audit = true;
  config.race_detect = true;
  config.ipc_path = IpcPath::kFamily;
  ustack::UkernelStack stack(config);
  auto pid = stack.guest_os(0).Spawn("gate");
  (void)stack.kernel().ActivateThread(stack.guest(0).app_thread);
  const auto before = stack.kernel().fastpath_stats();
  for (int r = 0; r < 32; ++r) {
    (void)stack.guest_os(0).Null(*pid);
  }
  stack.auditor()->Checkpoint("e23-family");
  const uint64_t violations = stack.auditor()->violation_count();
  if (violations != 0) {
    std::fprintf(stderr, "e23: family run has %llu checker violations\n",
                 static_cast<unsigned long long>(violations));
  }
  const auto& stats = stack.kernel().fastpath_stats();
  if (stats.taken <= before.taken || stats.replywait_coalesced <= before.replywait_coalesced) {
    std::fprintf(stderr, "e23: audited run never coalesced a reply-wait\n");
    return false;
  }
  return violations == 0;
}

}  // namespace

int main() {
  uharness::PrintHeading("E23",
                         "Liedtke fast-path family: reply-wait coalescing, Send/Notify, "
                         "pager fault IPC, pinned string window");

  bool fail = false;

  // --- Gate 1: reply-wait coalescing vs the E21 Call-only baseline -----
  struct Shape {
    const char* label;
    hwsim::Platform platform;
    bool same_task;
    bool small;
    bool gated;  // participates in the >=1.3x two-shape gate
  };
  const std::vector<Shape> shapes = {
      {"x86 flat, same task", hwsim::MakeX86Platform(), true, false, true},
      {"arm-v5 FCSE small spaces", hwsim::MakeArmPlatform(), false, true, true},
      {"mips-r4k tagged TLB, same task", hwsim::MakeMipsPlatform(), true, false, true},
      {"x86 small spaces", hwsim::MakeX86Platform(), false, true, false},
  };
  uharness::Table coalesce("0-word round trip, cycles (slow / E21 Call-only / E23 family)",
                           {"configuration", "slow path", "call-only", "family", "speedup"});
  int gated_over = 0;
  for (const Shape& shape : shapes) {
    PingPong slow(shape.platform, shape.same_task, shape.small, IpcPath::kSlow);
    PingPong callonly(shape.platform, shape.same_task, shape.small, IpcPath::kCallOnly);
    PingPong family(shape.platform, shape.same_task, shape.small, IpcPath::kFamily);
    const uint64_t s = slow.RoundTrip(0);
    const uint64_t co = callonly.RoundTrip(0);
    const uint64_t fam = family.RoundTrip(0);
    const double ratio = static_cast<double>(co) / static_cast<double>(fam);
    if (shape.gated && ratio >= 1.3) {
      ++gated_over;
    }
    if (family.kernel->fastpath_stats().replywait_coalesced == 0 ||
        callonly.kernel->fastpath_stats().replywait_coalesced != 0) {
      std::fprintf(stderr, "e23: %s: coalesce counters off\n", shape.label);
      fail = true;
    }
    coalesce.AddRow({shape.label, uharness::FmtInt(s), uharness::FmtInt(co),
                     uharness::FmtInt(fam), uharness::FmtDouble(ratio, 2) + "x"});
  }
  coalesce.Print();
  if (gated_over < 2) {
    std::fprintf(stderr,
                 "e23 GATE FAILED: reply-wait >=1.3x vs call-only on %d shape(s); "
                 "need at least two\n",
                 gated_over);
    fail = true;
  }

  // --- Gate 2: one-way Send and Notify ride the fast stubs -------------
  uharness::Table oneway("one-way IPC, cycles (x86 flat, cross-task)",
                         {"operation", "fastpath off", "fastpath on", "speedup"});
  {
    PingPong off(hwsim::MakeX86Platform(), false, false, IpcPath::kSlow);
    PingPong on(hwsim::MakeX86Platform(), false, false, IpcPath::kFamily);
    uint64_t send_cycles[2];
    int i = 0;
    for (PingPong* w : {&off, &on}) {
      (void)w->kernel->SetThreadHandler(w->server,
                                        [](ThreadId, ukern::IpcMessage) {
                                          return ukern::IpcMessage{};
                                        });
      (void)w->kernel->Send(w->client, w->server, ukern::IpcMessage::Short(0));  // settle
      const uint64_t t0 = w->machine.Now();
      (void)w->kernel->Send(w->client, w->server, ukern::IpcMessage::Short(7));
      send_cycles[i++] = w->machine.Now() - t0;
    }
    oneway.AddRow({"register-only Send", uharness::FmtInt(send_cycles[0]),
                   uharness::FmtInt(send_cycles[1]),
                   uharness::FmtDouble(static_cast<double>(send_cycles[0]) /
                                           static_cast<double>(send_cycles[1]),
                                       2) +
                       "x"});
    if (send_cycles[1] >= send_cycles[0] || on.kernel->fastpath_stats().send_fast == 0) {
      std::fprintf(stderr, "e23 GATE FAILED: Send did not ride the fast stubs\n");
      fail = true;
    }

    uint64_t notify_cycles[2];
    i = 0;
    for (PingPong* w : {&off, &on}) {
      (void)w->kernel->SetNotifyHandler(w->server, [](uint64_t) {});
      const uint64_t t0 = w->machine.Now();
      (void)w->kernel->Notify(w->server, 0b1);
      notify_cycles[i++] = w->machine.Now() - t0;
    }
    oneway.AddRow({"Notify, waiting receiver", uharness::FmtInt(notify_cycles[0]),
                   uharness::FmtInt(notify_cycles[1]),
                   uharness::FmtDouble(static_cast<double>(notify_cycles[0]) /
                                           static_cast<double>(notify_cycles[1]),
                                       2) +
                       "x"});
    if (notify_cycles[1] >= notify_cycles[0] || on.kernel->fastpath_stats().notify_fast == 0) {
      std::fprintf(stderr, "e23 GATE FAILED: Notify did not ride the fast stubs\n");
      fail = true;
    }
  }
  oneway.Print();

  // --- Gate 3: the pager's fault IPC takes the fast stubs ---------------
  uharness::Table faults("page fault resolution via pager, cycles per fault (mean of 16)",
                         {"configuration", "call-only", "family", "saved"});
  {
    constexpr int kFaults = 16;
    Paged callonly(IpcPath::kCallOnly);
    Paged family(IpcPath::kFamily);
    const uint64_t co = callonly.FaultMean(kFaults);
    const uint64_t fam = family.FaultMean(kFaults);
    faults.AddRow({"x86 flat, map-item reply", uharness::FmtInt(co), uharness::FmtInt(fam),
                   uharness::FmtInt(co - fam)});
    if (fam >= co ||
        family.kernel->fastpath_stats().fault_fast != static_cast<uint64_t>(kFaults) ||
        callonly.kernel->fastpath_stats().fault_fast != 0) {
      std::fprintf(stderr, "e23 GATE FAILED: fault IPC did not ride the fast stubs\n");
      fail = true;
    }
  }
  faults.Print();

  // --- Gate 4: the pinned window amortises a same-page string burst -----
  // Measured through its input: the same burst on the family path, from
  // one source page (every string after the first rides the pin) and
  // alternating between two pages of the client window (every string
  // misses and pays the window PTE write).
  uharness::Table burst("8 x 200 B strings on the family path, total cycles (x86 flat, cross-task)",
                        {"configuration", "alternating pages", "same page", "saved"});
  {
    constexpr int kBurst = 8;
    PingPong alternating(hwsim::MakeX86Platform(), false, false, IpcPath::kFamily);
    PingPong pinned(hwsim::MakeX86Platform(), false, false, IpcPath::kFamily);
    const hwsim::Vaddr page = alternating.machine.memory().page_size();
    uint64_t totals[2] = {0, 0};
    for (int r = 0; r < kBurst; ++r) {
      totals[0] += alternating.RoundTrip(200, kClientWin + (r % 2) * page);
      totals[1] += pinned.RoundTrip(200);
    }
    burst.AddRow({"x86 flat, 200 B echo", uharness::FmtInt(totals[0]),
                  uharness::FmtInt(totals[1]), uharness::FmtInt(totals[0] - totals[1])});
    const uint64_t expect_saved =
        (kBurst - 1) * pinned.machine.costs().pte_write;
    if (totals[0] - totals[1] != expect_saved ||
        pinned.kernel->fastpath_stats().window_pins != kBurst - 1 ||
        alternating.kernel->fastpath_stats().window_pins != 0) {
      std::fprintf(stderr,
                   "e23 GATE FAILED: pinned window saved %llu cycles over the burst; "
                   "expected exactly %llu ((N-1) * pte_write)\n",
                   static_cast<unsigned long long>(totals[0] - totals[1]),
                   static_cast<unsigned long long>(expect_saved));
      fail = true;
    }
  }
  burst.Print();

  // --- Gate 5: full-family stack run is checker-clean ------------------
  if (!FamilyRunIsClean()) {
    std::fprintf(stderr, "e23 GATE FAILED: family run not checker-clean\n");
    fail = true;
  }

  std::printf(
      "\nShape check: coalescing removes one fast entry + fast return per round trip,\n"
      "so it clears 1.3x wherever switches are free (same task, FCSE, tagged TLB) and\n"
      "helps least where segment reloads dominate (x86 small spaces, reported above).\n"
      "The fault path saves the trap-vs-stub delta per fault; the pinned window saves\n"
      "exactly one PTE write per burst member after the first.\n");

  uharness::WriteJsonIfRequested("E23");
  return fail ? 1 : 0;
}
