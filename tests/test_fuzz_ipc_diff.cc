// E23 differential fast-vs-slow IPC fuzzer.
//
// The fast-path family (Call, ReplyWait coalescing, Send, Notify, pager
// fault IPC, string windows) is an optimisation, never a semantic change —
// so the strongest test is differential: run the SAME seeded random IPC
// history through a slow-path kernel and a family-path kernel and demand
//
//  1. identical per-operation results (status codes, reply registers,
//     echoed string bytes, delivered notify bits);
//  2. identical end-state digests (thread states, message/notification
//     counters, pending latches, page-table presence) — the digest
//     deliberately EXCLUDES the clock and cycle accounting, which are
//     exactly what the fast path is allowed to change;
//  3. both worlds auditor-clean: balanced crossing ledger (the l4.ipc.call
//     / l4.ipc.reply / l4.ipc.replywait pairing), no isolation invariant,
//     no race-detector finding;
//  4. the ON world actually exercised every family member somewhere in the
//     bank (nonzero taken / replywait_coalesced / send_fast / notify_fast /
//     fault_fast counters) — otherwise the equivalence is vacuous.
//
// Histories include mid-call server death and a server killing its caller
// mid-call (each with respawn), pager death mid-fault-IPC, notify-handler
// toggling (so bits latch while no handler is installed and must merge into
// a later delivery), notifies fired from inside a server handler while the
// caller is mid-fast-Call, and vCPU migration (pinned string windows must
// not leak across vCPUs).
//
// ctest runs a fixed bank; set UKVM_FUZZ_SEEDS=<n> for a longer sweep
// (scripts/check.sh does).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/ukernel/ipc.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/task.h"
#include "src/ukernel/thread.h"

namespace {

using ucheck::Auditor;
using ukern::IpcPath;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::ThreadId;

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

struct DiffResult {
  uint64_t digest = 0;
  size_t violations = 0;
  std::vector<std::string> reports;
  ukern::Kernel::FastpathStats stats;
};

uint32_t VcpusForSeed(uint64_t seed) { return 1 + static_cast<uint32_t>(seed % 2); }

hwsim::Platform PlatformForSeed(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return hwsim::MakeX86Platform();
    case 1:
      return hwsim::MakeArmPlatform();
    default:
      return hwsim::MakeMipsPlatform();
  }
}

// One world: a pager task plus kPeers echo-server tasks whose faults the
// pager resolves by mapping fresh pages.
struct DiffWorld {
  static constexpr int kPeers = 3;
  static constexpr hwsim::Vaddr kWindowBase = 0x100000;
  static constexpr hwsim::Vaddr kWindowStride = 0x100000;
  static constexpr hwsim::Vaddr kFaultBase = 0x4000'0000;

  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  Auditor auditor;
  Digest digest;

  DomainId pager_task;
  ThreadId pager;
  bool pager_dies_this_fault = false;

  struct Peer {
    DomainId task;
    ThreadId thread;
    hwsim::Vaddr window;
    hwsim::Vaddr next_recv_va;   // fresh targets for incoming map items
    hwsim::Vaddr next_fault_va;  // fresh unmapped pages to fault on
    bool has_notify_handler = false;
    bool die_on_next_message = false;
    bool kill_sender_on_next_message = false;
    bool notify_sender_mid_call = false;
  };
  std::vector<Peer> peers;

  explicit DiffWorld(uint64_t seed, IpcPath path)
      : machine(PlatformForSeed(seed), 16ull * 1024 * 1024, VcpusForSeed(seed)),
        auditor(machine, MakeOpts()) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    auditor.AttachUkernel(*kernel);

    auto pt = kernel->CreateTask(ThreadId::Invalid());
    pager_task = *pt;
    pager = SpawnPager();

    for (int i = 0; i < kPeers; ++i) {
      auto task = kernel->CreateTask(pager);
      Peer p;
      p.task = *task;
      p.window = kWindowBase + static_cast<uint64_t>(i) * kWindowStride;
      p.next_recv_va = p.window + 16 * machine.memory().page_size();
      p.next_fault_va = kFaultBase + static_cast<uint64_t>(i) * kWindowStride;
      ukern::Task* t = kernel->FindTask(*task);
      for (int pg = 0; pg < 4; ++pg) {
        auto frame = machine.memory().AllocFrame(*task);
        const hwsim::Vaddr va =
            p.window + static_cast<uint64_t>(pg) * machine.memory().page_size();
        EXPECT_EQ(t->space.Map(va, *frame, hwsim::PtePerms{true, true}), Err::kNone);
        kernel->mapdb().AddRoot(*task, t->space.VpnOf(va), *frame);
      }
      p.thread = SpawnPeerThread(static_cast<size_t>(i), *task, p.window);
      peers.push_back(p);
    }
  }

  static Auditor::Options MakeOpts() {
    Auditor::Options opts;
    opts.race_detect = true;
    return opts;
  }

  ThreadId SpawnPager() {
    auto th = kernel->CreateThread(pager_task, 255, [this](ThreadId, ukern::IpcMessage msg) {
      if (pager_dies_this_fault) {
        pager_dies_this_fault = false;
        EXPECT_EQ(kernel->DestroyThread(pager), Err::kNone);
        return ukern::IpcMessage{};
      }
      const hwsim::Vaddr fault_va = msg.regs[1];
      auto frame = machine.memory().AllocFrame(pager_task);
      if (!frame.ok()) {
        return ukern::IpcMessage::Error(Err::kNoMemory);
      }
      ukern::Task* t = kernel->FindTask(pager_task);
      const hwsim::Vaddr src = machine.memory().FrameBase(*frame);
      EXPECT_EQ(t->space.Map(src, *frame, hwsim::PtePerms{true, true}), Err::kNone);
      kernel->mapdb().AddRoot(pager_task, t->space.VpnOf(src), *frame);
      ukern::IpcMessage reply;
      reply.map_items.push_back(ukern::MapItem{
          src, fault_va & ~(machine.memory().page_size() - 1), 1, true, false});
      return reply;
    });
    EXPECT_TRUE(th.ok());
    return *th;
  }

  ThreadId SpawnPeerThread(size_t index, DomainId task, hwsim::Vaddr window) {
    auto th = kernel->CreateThread(
        task, 128, [this, index, window](ThreadId sender, ukern::IpcMessage msg) {
          Peer& me = peers[index];
          if (me.die_on_next_message) {
            me.die_on_next_message = false;
            EXPECT_EQ(kernel->DestroyThread(me.thread), Err::kNone);
            return ukern::IpcMessage{};
          }
          if (me.kill_sender_on_next_message) {
            // The caller dies while blocked in this very call: the reply
            // below is void in both worlds.
            me.kill_sender_on_next_message = false;
            EXPECT_EQ(kernel->DestroyThread(sender), Err::kNone);
          }
          if (me.notify_sender_mid_call) {
            me.notify_sender_mid_call = false;
            // The sender is blocked in this very call: the bits must latch
            // or deliver identically in both worlds.
            (void)kernel->Notify(sender, 0x2);
          }
          ukern::IpcMessage reply;
          reply.regs[0] = msg.regs[0] + 1;
          reply.reg_count = 1;
          if (msg.has_string) {
            reply.has_string = true;
            reply.string = ukern::StringItem{window, msg.string.len};
          }
          return reply;
        });
    EXPECT_TRUE(th.ok());
    EXPECT_EQ(kernel->SetRecvBuffer(*th, window,
                                    4 * static_cast<uint32_t>(machine.memory().page_size())),
              Err::kNone);
    return *th;
  }

  void MixReply(const ukern::IpcMessage& reply) {
    digest.Mix(static_cast<uint64_t>(reply.status));
    digest.Mix(reply.reg_count);
    for (uint32_t r = 0; r < reply.reg_count && r < 4; ++r) {
      digest.Mix(reply.regs[r]);
    }
    digest.Mix(reply.string_data.size());
    for (uint8_t b : reply.string_data) {
      digest.Mix(b);
    }
  }

  void FinishDigest() {
    auditor.Checkpoint("ipc-diff-final");
    for (const Peer& p : peers) {
      const ukern::Tcb* t = kernel->FindThread(p.thread);
      digest.Mix(t != nullptr);
      if (t != nullptr) {
        digest.Mix(static_cast<uint64_t>(t->state));
        digest.Mix(t->messages_handled);
        digest.Mix(t->notifications);
        digest.Mix(t->pending_notify_bits);
      }
      const ukern::Task* task = kernel->FindTask(p.task);
      digest.Mix(task != nullptr && task->alive);
      if (task != nullptr) {
        // Window pages plus every page this peer faulted or received.
        for (hwsim::Vaddr va = p.window; va < p.next_recv_va;
             va += machine.memory().page_size()) {
          MixPte(*task, va);
        }
        for (hwsim::Vaddr va = kFaultBase +
                               static_cast<uint64_t>(&p - peers.data()) * kWindowStride;
             va < p.next_fault_va; va += machine.memory().page_size()) {
          MixPte(*task, va);
        }
      }
    }
    digest.Mix(kernel->ipc_calls());
    digest.Mix(auditor.violation_count());
  }

  void MixPte(const ukern::Task& task, hwsim::Vaddr va) {
    const hwsim::Pte* pte = const_cast<ukern::Task&>(task).space.Walk(va);
    const bool present = pte != nullptr && pte->present;
    digest.Mix(present);
    if (present) {
      digest.Mix(pte->writable);
    }
  }
};

DiffResult RunIpcHistory(uint64_t seed, uint32_t steps, IpcPath path,
                         bool mutate_notify_latch = false) {
  SplitMix64 rng(seed * 2 + 1);
  DiffWorld w(seed, path);
  if (mutate_notify_latch) {
    w.kernel->TestSkipNotifyLatch(true);
  }
  const uint64_t page = w.machine.memory().page_size();

  for (uint32_t step = 0; step < steps; ++step) {
    const size_t a = rng.Below(DiffWorld::kPeers);
    size_t b = rng.Below(DiffWorld::kPeers);
    if (b == a) {
      b = (b + 1) % DiffWorld::kPeers;
    }
    DiffWorld::Peer& src = w.peers[a];
    DiffWorld::Peer& dst = w.peers[b];
    const uint64_t op = rng.Below(100);
    if (op < 22) {  // register-only Call
      ukern::IpcMessage reply =
          w.kernel->Call(src.thread, dst.thread, ukern::IpcMessage::Short(step));
      w.MixReply(reply);
    } else if (op < 34) {  // single-page string Call with fresh payload
      const uint32_t len = 32 + static_cast<uint32_t>(rng.Below(200));
      ukern::Task* t = w.kernel->FindTask(src.task);
      const hwsim::Pte* pte = t->space.Walk(src.window);
      std::vector<uint8_t> payload(len);
      for (uint32_t i = 0; i < len; ++i) {
        payload[i] = static_cast<uint8_t>(rng.Next() & 0xff);
      }
      EXPECT_EQ(w.machine.memory().Write(w.machine.memory().FrameBase(pte->frame), payload),
                Err::kNone);
      ukern::IpcMessage msg = ukern::IpcMessage::Short(step);
      msg.has_string = true;
      msg.string = ukern::StringItem{src.window, len};
      ukern::IpcMessage reply = w.kernel->Call(src.thread, dst.thread, msg);
      w.MixReply(reply);
    } else if (op < 44) {  // map-item Call (always slow: classify must agree)
      ukern::IpcMessage msg = ukern::IpcMessage::Short(step);
      const hwsim::Vaddr rcv = dst.next_recv_va;
      dst.next_recv_va += page;
      msg.map_items.push_back(
          ukern::MapItem{src.window, rcv, 1, rng.Chance(70), /*grant=*/false});
      ukern::IpcMessage reply = w.kernel->Call(src.thread, dst.thread, msg);
      w.MixReply(reply);
    } else if (op < 54) {  // register-only Send
      w.digest.Mix(static_cast<uint64_t>(
          w.kernel->Send(src.thread, dst.thread, ukern::IpcMessage::Short(step))));
    } else if (op < 66) {  // Notify (receiver may or may not have a handler)
      w.digest.Mix(static_cast<uint64_t>(
          w.kernel->Notify(dst.thread, 1ull << rng.Below(8))));
    } else if (op < 72) {  // toggle the receiver's notify handler
      if (dst.has_notify_handler) {
        EXPECT_EQ(w.kernel->SetNotifyHandler(dst.thread, nullptr), Err::kNone);
        dst.has_notify_handler = false;
      } else {
        Digest* dg = &w.digest;
        EXPECT_EQ(w.kernel->SetNotifyHandler(dst.thread,
                                             [dg](uint64_t bits) { dg->Mix(bits); }),
                  Err::kNone);
        dst.has_notify_handler = true;
      }
    } else if (op < 80) {  // fault IPC: touch a fresh unmapped page
      const hwsim::Vaddr va = src.next_fault_va;
      src.next_fault_va += page;
      w.digest.Mix(static_cast<uint64_t>(w.kernel->TouchPage(src.thread, va, rng.Chance(50))));
      // Re-touch: a hit after a resolved fault, kFault/kDead again otherwise.
      w.digest.Mix(static_cast<uint64_t>(w.kernel->TouchPage(src.thread, va + 8, false)));
    } else if (op < 84) {  // mid-call server death, then respawn
      dst.die_on_next_message = true;
      ukern::IpcMessage reply =
          w.kernel->Call(src.thread, dst.thread, ukern::IpcMessage::Short(step));
      w.MixReply(reply);
      dst.thread = w.SpawnPeerThread(b, dst.task, dst.window);
      dst.has_notify_handler = false;
    } else if (op < 88) {  // the server kills its caller mid-call, then respawn
      dst.kill_sender_on_next_message = true;
      ukern::IpcMessage reply =
          w.kernel->Call(src.thread, dst.thread, ukern::IpcMessage::Short(step));
      w.MixReply(reply);
      src.thread = w.SpawnPeerThread(a, src.task, src.window);
      src.has_notify_handler = false;
    } else if (op < 92) {  // notify-during-wait: fired from inside the handler
      dst.notify_sender_mid_call = true;
      ukern::IpcMessage reply =
          w.kernel->Call(src.thread, dst.thread, ukern::IpcMessage::Short(step));
      w.MixReply(reply);
    } else if (op < 96) {  // pager death mid-fault-IPC, then respawn + rebind
      w.pager_dies_this_fault = true;
      const hwsim::Vaddr va = src.next_fault_va;
      src.next_fault_va += page;
      w.digest.Mix(static_cast<uint64_t>(w.kernel->TouchPage(src.thread, va, true)));
      w.pager = w.SpawnPager();
      for (DiffWorld::Peer& p : w.peers) {
        EXPECT_EQ(w.kernel->SetPager(p.task, w.pager), Err::kNone);
      }
    } else {  // migrate: pinned string windows are per-vCPU
      w.machine.SwitchVcpu(static_cast<uint32_t>(rng.Below(w.machine.num_vcpus())));
    }
    if (step % 32 == 31) {
      w.auditor.Checkpoint("ipc-diff-periodic");
    }
  }

  w.FinishDigest();
  DiffResult out;
  out.digest = w.digest.value;
  out.violations = w.auditor.violation_count();
  out.reports = w.auditor.ViolationReports();
  out.stats = w.kernel->fastpath_stats();
  return out;
}

constexpr uint32_t kSteps = 128;

uint64_t SeedCount() {
  if (const char* env = std::getenv("UKVM_FUZZ_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<uint64_t>(n);
    }
  }
  return 24;
}

// The headline test: every seed's history is result- and end-state
// equivalent between the two worlds, both worlds are checker-clean, and the
// family counters prove every new path fired somewhere in the bank.
TEST(FuzzIpcDiff, FastAndSlowWorldsAgreeAcrossSeedBank) {
  const uint64_t seeds = SeedCount();
  ukern::Kernel::FastpathStats total;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DiffResult off = RunIpcHistory(seed, kSteps, IpcPath::kSlow);
    const DiffResult on = RunIpcHistory(seed, kSteps, IpcPath::kFamily);
    for (const std::string& report : off.reports) {
      ADD_FAILURE() << "slow world: " << report;
    }
    for (const std::string& report : on.reports) {
      ADD_FAILURE() << "fast world: " << report;
    }
    EXPECT_EQ(off.violations, 0u);
    EXPECT_EQ(on.violations, 0u);
    EXPECT_EQ(on.digest, off.digest) << "fast/slow divergence";
    // The slow world must never take a fast path.
    EXPECT_EQ(off.stats.taken + off.stats.send_fast + off.stats.notify_fast +
                  off.stats.fault_fast,
              0u);
    total.taken += on.stats.taken;
    total.replywait_coalesced += on.stats.replywait_coalesced;
    total.send_fast += on.stats.send_fast;
    total.notify_fast += on.stats.notify_fast;
    total.fault_fast += on.stats.fault_fast;
    total.window_pins += on.stats.window_pins;
  }
  EXPECT_GT(total.taken, 0u) << "Call fast path never fired";
  EXPECT_GT(total.replywait_coalesced, 0u) << "ReplyWait coalescing never fired";
  EXPECT_GT(total.send_fast, 0u) << "Send fast path never fired";
  EXPECT_GT(total.notify_fast, 0u) << "Notify fast path never fired";
  EXPECT_GT(total.fault_fast, 0u) << "fault-IPC fast path never fired";
}

// Two runs of the same seed and world must digest identically — the
// differential comparison above is meaningless if either world is
// internally nondeterministic.
TEST(FuzzIpcDiff, EachWorldIsTwoRunDeterministic) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (IpcPath path : {IpcPath::kSlow, IpcPath::kCallOnly, IpcPath::kFamily}) {
      const DiffResult first = RunIpcHistory(seed, kSteps, path);
      const DiffResult second = RunIpcHistory(seed, kSteps, path);
      EXPECT_EQ(first.digest, second.digest)
          << "world nondeterministic on path " << static_cast<int>(path);
    }
  }
}

// The Call-only path must also be equivalent to the slow path — the E21
// subset remains a valid configuration of the family.
TEST(FuzzIpcDiff, CallOnlyFeatureSetAgreesWithSlowPath) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DiffResult off = RunIpcHistory(seed, kSteps, IpcPath::kSlow);
    const DiffResult on = RunIpcHistory(seed, kSteps, IpcPath::kCallOnly);
    EXPECT_EQ(on.digest, off.digest);
    EXPECT_EQ(on.violations, 0u);
    // The family members stayed dark.
    EXPECT_EQ(on.stats.replywait_coalesced + on.stats.send_fast + on.stats.notify_fast +
                  on.stats.fault_fast + on.stats.window_pins,
              0u);
  }
}

// Mutation self-test for TestSkipNotifyLatch: a fast path that delivers
// only the fresh notify bits — silently dropping anything latched while the
// handler was unset — must be caught by this fuzzer as a fast-vs-slow
// divergence. If no seed in a small bank diverges, the fuzzer's histories
// are not exercising the latch-merge interleaving and the suite is
// toothless.
TEST(FuzzIpcDiffMutation, SkippedNotifyLatchCaughtByDifferentialFuzzer) {
  bool diverged = false;
  for (uint64_t seed = 1; seed <= 16 && !diverged; ++seed) {
    const DiffResult off = RunIpcHistory(seed, kSteps, IpcPath::kSlow);
    const DiffResult on = RunIpcHistory(seed, kSteps, IpcPath::kFamily,
                                        /*mutate_notify_latch=*/true);
    diverged = on.digest != off.digest;
  }
  EXPECT_TRUE(diverged) << "the notify-latch mutation survived the fuzzer";
}

}  // namespace
