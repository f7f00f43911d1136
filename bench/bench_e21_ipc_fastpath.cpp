// E21 — "IPC done right": the L4 fast path (gating bench).
//
// Paper §2: the microkernel rebuttal rests on Liedtke-style IPC fast
// paths. This bench measures the E21 fast path — fast trap entry/exit,
// register transfer at zero copy cost, direct process switch with
// time-slice donation, lazy scheduling, and a temporary-mapping window for
// string items — against the unchanged slow path, and *gates*:
//
//   1. >= 2x fewer cycles per 0-word ping-pong on at least two platforms
//      (classic Liedtke configuration: small spaces, where the trap cost
//      dominates — x86 segment remap and ARM FCSE PID relocation);
//   2. the E1 flat-x86 shape and the E11 syscall-redirection shape both
//      improve (fastpath-on strictly cheaper);
//   3. a fastpath-on stack run is auditor- and race-detector-clean with a
//      balanced crossing ledger.
//
// Exits non-zero if any gate fails.

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

constexpr int kRounds = 100;

// Two tasks, echo server, optional small spaces — the E1 harness shape.
struct PingPong {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ThreadId client;
  ThreadId server;
  static constexpr hwsim::Vaddr kClientWin = 0x100000;
  static constexpr hwsim::Vaddr kServerWin = 0x200000;

  // This bench is the E21 historical record: the fast side runs the
  // Call-only path so its committed tables stay bit-identical.
  // bench_e23_replywait measures the full family against this baseline.
  PingPong(const hwsim::Platform& platform, bool small, IpcPath path)
      : machine(platform, 16 << 20) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    auto MakeSide = [&](hwsim::Vaddr window, ukern::IpcHandler handler) {
      auto task = kernel->CreateTask(ThreadId::Invalid());
      auto thread = kernel->CreateThread(*task, 128, std::move(handler));
      ukern::Task* t = kernel->FindTask(*task);
      for (int i = 0; i < 4; ++i) {
        auto frame = machine.memory().AllocFrame(*task);
        const hwsim::Vaddr va = window + static_cast<uint64_t>(i) * machine.memory().page_size();
        (void)t->space.Map(va, *frame, hwsim::PtePerms{true, true});
        kernel->mapdb().AddRoot(*task, t->space.VpnOf(va), *frame);
      }
      (void)kernel->SetRecvBuffer(*thread, window,
                                  4 * static_cast<uint32_t>(machine.memory().page_size()));
      return std::pair{*task, *thread};
    };
    auto [server_task, server_thread] = MakeSide(kServerWin, [](ThreadId, ukern::IpcMessage msg) {
      ukern::IpcMessage reply;
      reply.regs[0] = msg.regs[0];
      reply.reg_count = 1;
      if (msg.has_string) {
        reply.has_string = true;
        reply.string = ukern::StringItem{kServerWin, msg.string.len};
      }
      return reply;
    });
    auto [client_task, client_thread] = MakeSide(kClientWin, nullptr);
    server = server_thread;
    client = client_thread;
    if (small) {
      (void)kernel->SetSmallSpace(server_task, true);
      (void)kernel->SetSmallSpace(client_task, true);
    }
    (void)RoundTrip(0);  // settle contexts: steady-state switches from here on
  }

  uint64_t RoundTrip(uint32_t bytes) {
    ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
    if (bytes > 0) {
      msg.has_string = true;
      msg.string = ukern::StringItem{kClientWin, bytes};
    }
    const uint64_t t0 = machine.Now();
    ukern::IpcMessage reply = kernel->Call(client, server, msg);
    if (reply.status != Err::kNone) {
      std::fprintf(stderr, "e21 round trip failed: %s\n", ukvm::ErrName(reply.status));
    }
    return machine.Now() - t0;
  }

  uint64_t Mean(uint32_t bytes) {
    uint64_t total = 0;
    for (int r = 0; r < kRounds; ++r) {
      total += RoundTrip(bytes);
    }
    return total / kRounds;
  }
};

uint64_t NullSyscallMean(IpcPath path) {
  ustack::UkernelStack::Config config;
  config.audit = false;  // saves host time only: the auditor charges no cycle
  config.ipc_path = path;
  ustack::UkernelStack stack(config);
  auto pid = stack.guest_os(0).Spawn("bench");
  (void)stack.kernel().ActivateThread(stack.guest(0).app_thread);
  (void)stack.guest_os(0).Null(*pid);  // settle
  const uint64_t t0 = stack.machine().Now();
  for (int r = 0; r < kRounds; ++r) {
    (void)stack.guest_os(0).Null(*pid);
  }
  return (stack.machine().Now() - t0) / kRounds;
}

// Gate 3: a fastpath-on stack stays auditor- and race-detector-clean (the
// checkpoint sweeps the invariants, the crossing-ledger lint's balance
// check, and the race detector's findings).
bool FastpathRunIsClean() {
  ustack::UkernelStack::Config config;
  config.audit = true;
  config.race_detect = true;
  config.ipc_path = IpcPath::kFamily;
  ustack::UkernelStack stack(config);
  auto pid = stack.guest_os(0).Spawn("gate");
  (void)stack.kernel().ActivateThread(stack.guest(0).app_thread);
  // Delta over the syscall loop: boot traffic takes the fast path before the
  // auditor attaches, so a cumulative count would pass vacuously.
  const uint64_t taken_before = stack.kernel().fastpath_stats().taken;
  for (int r = 0; r < 32; ++r) {
    (void)stack.guest_os(0).Null(*pid);
  }
  stack.auditor()->Checkpoint("e21-fastpath");
  const uint64_t violations = stack.auditor()->violation_count();
  if (violations != 0) {
    std::fprintf(stderr, "e21: fastpath-on run has %llu checker violations\n",
                 static_cast<unsigned long long>(violations));
  }
  const auto& stats = stack.kernel().fastpath_stats();
  if (stats.taken <= taken_before) {
    std::fprintf(stderr, "e21: audited run never took the fast path\n");
    return false;
  }
  return violations == 0;
}

}  // namespace

int main() {
  uharness::PrintHeading("E21",
                         "L4 fast-path IPC: direct process switch, lazy scheduling, temp-map "
                         "window");

  struct Config {
    const char* label;
    hwsim::Platform platform;
    bool small;
    bool gated;  // participates in the >=2x two-platform gate
  };
  const std::vector<Config> configs = {
      {"x86 flat spaces", hwsim::MakeX86Platform(), false, false},
      {"x86 small spaces", hwsim::MakeX86Platform(), true, true},
      {"arm-v5 FCSE small spaces", hwsim::MakeArmPlatform(), true, true},
      {"mips-r4k tagged TLB", hwsim::MakeMipsPlatform(), false, false},
  };

  bool fail = false;

  uharness::Table pingpong("0-word ping-pong, cycles per round trip (mean of 100)",
                           {"configuration", "fastpath off", "fastpath on", "speedup"});
  int gated_over_2x = 0;
  uint64_t e1_off = 0;
  uint64_t e1_on = 0;
  for (const Config& config : configs) {
    PingPong off(config.platform, config.small, IpcPath::kSlow);
    PingPong on(config.platform, config.small, IpcPath::kCallOnly);
    const uint64_t off_mean = off.Mean(0);
    const uint64_t on_mean = on.Mean(0);
    const double ratio = static_cast<double>(off_mean) / static_cast<double>(on_mean);
    if (config.gated && ratio >= 2.0) {
      ++gated_over_2x;
    }
    if (!config.small && config.platform.name == "x86-32") {
      e1_off = off_mean;
      e1_on = on_mean;
    }
    const auto& stats = on.kernel->fastpath_stats();
    if (stats.taken == 0 || stats.fallback_not_ready + stats.fallback_map +
                                stats.fallback_string !=
                            0) {
      std::fprintf(stderr, "e21: %s: unexpected fallbacks on the 0-word path\n", config.label);
      fail = true;
    }
    pingpong.AddRow({config.label, uharness::FmtInt(off_mean), uharness::FmtInt(on_mean),
                     uharness::FmtDouble(ratio, 2) + "x"});
  }
  pingpong.Print();

  if (gated_over_2x < 2) {
    std::fprintf(stderr,
                 "e21 GATE FAILED: >=2x on %d platform(s); need at least two "
                 "(x86 small spaces + ARM FCSE)\n",
                 gated_over_2x);
    fail = true;
  }

  // E1 shape: the flat-x86 configuration every E1 row uses must improve
  // even though the full 550-cycle switch + flush still dominates.
  if (e1_on >= e1_off) {
    std::fprintf(stderr, "e21 GATE FAILED: flat-x86 (E1 shape) did not improve\n");
    fail = true;
  }

  // Temporary-mapping window: a single-page string replaces the walk-twice
  // gather/scatter with one PTE write and one charged copy.
  uharness::Table strings("256 B string ping-pong, cycles per round trip (mean of 100)",
                          {"configuration", "fastpath off", "fastpath on", "speedup"});
  {
    PingPong off(hwsim::MakeX86Platform(), false, IpcPath::kSlow);
    PingPong on(hwsim::MakeX86Platform(), false, IpcPath::kCallOnly);
    const uint64_t off_mean = off.Mean(256);
    const uint64_t on_mean = on.Mean(256);
    strings.AddRow({"x86 flat spaces", uharness::FmtInt(off_mean), uharness::FmtInt(on_mean),
                    uharness::FmtDouble(static_cast<double>(off_mean) /
                                            static_cast<double>(on_mean),
                                        2) +
                        "x"});
    if (on.kernel->fastpath_stats().string_windows == 0) {
      std::fprintf(stderr, "e21 GATE FAILED: string path never used the temp-map window\n");
      fail = true;
    }
    if (on_mean >= off_mean) {
      std::fprintf(stderr, "e21 GATE FAILED: string fast path did not improve\n");
      fail = true;
    }
  }
  strings.Print();

  // E11 shape: syscall redirection (app -> OS server Call) rides the fast
  // path with no changes to the port layer.
  uharness::Table syscalls("null syscall via redirection, cycles (mean of 100)",
                           {"configuration", "fastpath off", "fastpath on", "speedup"});
  {
    const uint64_t off_mean = NullSyscallMean(IpcPath::kSlow);
    const uint64_t on_mean = NullSyscallMean(IpcPath::kCallOnly);
    syscalls.AddRow({"uk-stack null syscall", uharness::FmtInt(off_mean),
                     uharness::FmtInt(on_mean),
                     uharness::FmtDouble(static_cast<double>(off_mean) /
                                             static_cast<double>(on_mean),
                                         2) +
                         "x"});
    if (on_mean >= off_mean) {
      std::fprintf(stderr, "e21 GATE FAILED: null-syscall redirection did not improve\n");
      fail = true;
    }
  }
  syscalls.Print();

  if (!FastpathRunIsClean()) {
    std::fprintf(stderr, "e21 GATE FAILED: fastpath-on run not checker-clean\n");
    fail = true;
  }

  std::printf(
      "\nShape check: with small spaces the trap sequence dominates the round trip, so\n"
      "the fast path's cheap entry/exit clears 2x on both remap mechanisms (x86\n"
      "segments, ARM FCSE); flat spaces keep the full switch + flush and improve less.\n"
      "The checker gate pins that the fast path emits balanced call/reply crossings.\n");

  uharness::WriteJsonIfRequested("E21");
  return fail ? 1 : 0;
}
