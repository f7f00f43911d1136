// E21 L4 IPC fast path: semantic equivalence with the slow path, the
// pinned fallback triggers, lazy-scheduling reconciliation, and the
// crossing-ledger mutation self-test.
//
// The fast path is an optimisation, never a semantic change: every test
// here runs the same operation through a fastpath-off kernel and a
// fastpath-on kernel and demands identical results — only the charged
// cycle sequence may differ, and for eligible calls it must shrink.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/check/auditor.h"
#include "src/check/ledger_lint.h"
#include "src/hw/machine.h"
#include "src/hw/platform.h"
#include "src/os/ports/protocols.h"
#include "src/stacks/ukernel_stack.h"
#include "src/ukernel/ipc.h"
#include "src/ukernel/kernel.h"
#include "src/ukernel/task.h"
#include "src/ukernel/thread.h"

namespace {

using ucheck::Auditor;
using ucheck::LintRule;
using ukern::IpcPath;
using ukvm::Err;
using ukvm::ThreadId;

constexpr hwsim::Vaddr kClientWin = 0x100000;
constexpr hwsim::Vaddr kServerWin = 0x200000;

constexpr IpcPath kAllPaths[] = {IpcPath::kSlow, IpcPath::kCallOnly, IpcPath::kFamily};

const char* PathName(IpcPath path) {
  switch (path) {
    case IpcPath::kSlow:
      return "slow";
    case IpcPath::kCallOnly:
      return "call-only";
    case IpcPath::kFamily:
      return "family";
  }
  return "?";
}

// The E1 harness shape: two tasks, an echo server, mapped string windows.
struct World {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ukvm::DomainId client_task;
  ukvm::DomainId server_task;
  ThreadId client;
  ThreadId server;

  // kFamily arms the whole E23 family; kCallOnly reproduces E21 exactly.
  explicit World(IpcPath path, hwsim::Platform platform = hwsim::MakeX86Platform(),
                 uint32_t num_vcpus = 1)
      : machine(platform, 16 << 20, num_vcpus) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    auto make_side = [&](hwsim::Vaddr window, ukern::IpcHandler handler) {
      auto task = kernel->CreateTask(ThreadId::Invalid());
      auto thread = kernel->CreateThread(*task, 128, std::move(handler));
      ukern::Task* t = kernel->FindTask(*task);
      for (int i = 0; i < 4; ++i) {
        auto frame = machine.memory().AllocFrame(*task);
        const hwsim::Vaddr va = window + static_cast<uint64_t>(i) * machine.memory().page_size();
        EXPECT_EQ(t->space.Map(va, *frame, hwsim::PtePerms{true, true}), Err::kNone);
        kernel->mapdb().AddRoot(*task, t->space.VpnOf(va), *frame);
      }
      EXPECT_EQ(kernel->SetRecvBuffer(*thread, window,
                                      4 * static_cast<uint32_t>(machine.memory().page_size())),
                Err::kNone);
      return std::pair{*task, *thread};
    };
    std::tie(server_task, server) =
        make_side(kServerWin, [](ThreadId, ukern::IpcMessage msg) {
          ukern::IpcMessage reply;
          reply.regs[0] = msg.regs[0] + 1;
          reply.reg_count = 1;
          if (msg.has_string) {
            reply.has_string = true;
            reply.string = ukern::StringItem{kServerWin, msg.string.len};
          }
          return reply;
        });
    std::tie(client_task, client) = make_side(kClientWin, nullptr);
  }

  uint64_t TimedCall(ukern::IpcMessage msg, ukern::IpcMessage* out = nullptr) {
    const uint64_t t0 = machine.Now();
    ukern::IpcMessage reply = kernel->Call(client, server, std::move(msg));
    EXPECT_EQ(reply.status, Err::kNone);
    if (out != nullptr) {
      *out = std::move(reply);
    }
    return machine.Now() - t0;
  }
};

// --- Semantic equivalence ---------------------------------------------------------

TEST(Fastpath, RegisterOnlyCallMatchesSlowPathResult) {
  World off(IpcPath::kSlow);
  World on(IpcPath::kFamily);
  ukern::IpcMessage msg = ukern::IpcMessage::Short(41);
  ukern::IpcMessage slow_reply;
  ukern::IpcMessage fast_reply;
  (void)off.TimedCall(msg, &slow_reply);
  (void)on.TimedCall(msg, &fast_reply);
  EXPECT_EQ(fast_reply.status, slow_reply.status);
  EXPECT_EQ(fast_reply.reg_count, slow_reply.reg_count);
  EXPECT_EQ(fast_reply.regs[0], slow_reply.regs[0]);
  EXPECT_EQ(fast_reply.regs[0], 42u);
  EXPECT_EQ(on.kernel->fastpath_stats().taken, 1u);
  EXPECT_EQ(off.kernel->fastpath_stats().taken, 0u);
  // Same messages handled, same server-side observation.
  EXPECT_EQ(on.kernel->FindThread(on.server)->messages_handled,
            off.kernel->FindThread(off.server)->messages_handled);
}

TEST(Fastpath, ShortStringUsesTempWindowAndMatchesSlowPath) {
  World off(IpcPath::kSlow);
  World on(IpcPath::kFamily);
  // A 200-byte string inside one page: eligible for the temp-map window.
  auto make_msg = [&](World& w) {
    std::vector<uint8_t> payload(200);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 7);
    }
    ukern::Task* t = w.kernel->FindTask(w.client_task);
    const hwsim::Pte* pte = t->space.Walk(kClientWin);
    EXPECT_EQ(w.machine.memory().Write(w.machine.memory().FrameBase(pte->frame), payload),
              Err::kNone);
    ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
    msg.has_string = true;
    msg.string = ukern::StringItem{kClientWin, 200};
    return msg;
  };
  ukern::IpcMessage slow_reply;
  ukern::IpcMessage fast_reply;
  const uint64_t slow = off.TimedCall(make_msg(off), &slow_reply);
  const uint64_t fast = on.TimedCall(make_msg(on), &fast_reply);
  EXPECT_EQ(on.kernel->fastpath_stats().string_windows, 1u);
  EXPECT_EQ(on.kernel->fastpath_stats().fallback_string, 0u);
  // The receiver observed the same bytes either way.
  ASSERT_EQ(fast_reply.string_data.size(), slow_reply.string_data.size());
  EXPECT_EQ(fast_reply.string_data, slow_reply.string_data);
  // One PTE write + one copy beats the walk-twice gather/scatter.
  EXPECT_LT(fast, slow);
}

// --- Pinned fallback triggers -----------------------------------------------------

TEST(Fastpath, PageCrossingStringFallsBackToSlowPath) {
  World on(IpcPath::kFamily);
  World off(IpcPath::kSlow);
  const uint32_t len = static_cast<uint32_t>(on.machine.memory().page_size()) + 64;
  ukern::IpcMessage msg = ukern::IpcMessage::Short(7);
  msg.has_string = true;
  msg.string = ukern::StringItem{kClientWin, len};
  ukern::IpcMessage fast_reply;
  ukern::IpcMessage slow_reply;
  const uint64_t fast = on.TimedCall(msg, &fast_reply);
  const uint64_t slow = off.TimedCall(msg, &slow_reply);
  EXPECT_EQ(on.kernel->fastpath_stats().fallback_string, 1u);
  EXPECT_EQ(on.kernel->fastpath_stats().taken, 0u);
  EXPECT_EQ(on.kernel->fastpath_stats().string_windows, 0u);
  // Fallback is the slow path: identical result and identical cycle cost.
  EXPECT_EQ(fast_reply.string_data, slow_reply.string_data);
  EXPECT_EQ(fast, slow);
}

TEST(Fastpath, MapItemFallsBackToSlowPath) {
  World on(IpcPath::kFamily);
  World off(IpcPath::kSlow);
  ukern::IpcMessage msg = ukern::IpcMessage::Short(7);
  msg.map_items.push_back(ukern::MapItem{kClientWin, 0x300000, 1, true, false});
  ukern::IpcMessage fast_reply;
  ukern::IpcMessage slow_reply;
  const uint64_t fast = on.TimedCall(msg, &fast_reply);
  const uint64_t slow = off.TimedCall(msg, &slow_reply);
  EXPECT_EQ(on.kernel->fastpath_stats().fallback_map, 1u);
  EXPECT_EQ(on.kernel->fastpath_stats().taken, 0u);
  EXPECT_EQ(fast, slow);
  // The delegation really happened: the receiver can touch the new page.
  EXPECT_EQ(on.kernel->TouchPage(on.server, 0x300000, false), Err::kNone);
}

TEST(Fastpath, ReceiverNotReadyFallsBackToSlowPath) {
  World on(IpcPath::kFamily);
  World off(IpcPath::kSlow);
  // The server is mid-quantum rather than blocked in receive: the fast
  // path's direct switch would be wrong, so the call must take the slow
  // path (which queues through the passive-server model either way).
  on.kernel->FindThread(on.server)->state = ukern::ThreadState::kRunning;
  off.kernel->FindThread(off.server)->state = ukern::ThreadState::kRunning;
  ukern::IpcMessage fast_reply;
  ukern::IpcMessage slow_reply;
  const uint64_t fast = on.TimedCall(ukern::IpcMessage::Short(9), &fast_reply);
  const uint64_t slow = off.TimedCall(ukern::IpcMessage::Short(9), &slow_reply);
  EXPECT_EQ(on.kernel->fastpath_stats().fallback_not_ready, 1u);
  EXPECT_EQ(on.kernel->fastpath_stats().taken, 0u);
  EXPECT_EQ(fast_reply.regs[0], slow_reply.regs[0]);
  EXPECT_EQ(fast, slow);
}

// --- The promised cycle reductions ------------------------------------------------

TEST(Fastpath, SmallSpaceRoundTripAtLeastHalved) {
  // The Liedtke configuration: both partners in small spaces, so the
  // address-space switch is a segment remap and the trap sequence
  // dominates. This is where the paper's 2x claim must hold. Pinned to the
  // Call-only feature set: this is the E21 arithmetic record; the family's
  // coalesced shape is pinned in ReplyWait* below.
  World off(IpcPath::kSlow);
  World on(IpcPath::kCallOnly, hwsim::MakeX86Platform());
  for (World* w : {&off, &on}) {
    ASSERT_EQ(w->kernel->SetSmallSpace(w->client_task, true), Err::kNone);
    ASSERT_EQ(w->kernel->SetSmallSpace(w->server_task, true), Err::kNone);
    (void)w->TimedCall(ukern::IpcMessage::Short(0));  // settle switch state
  }
  const uint64_t slow = off.TimedCall(ukern::IpcMessage::Short(1));
  const uint64_t fast = on.TimedCall(ukern::IpcMessage::Short(1));
  const auto& costs = on.machine.costs();
  // Exactly two fast trap transits plus two 4-segment remaps, nothing else:
  // no kernel_op, no schedule_decision, registers transfer for free.
  EXPECT_EQ(fast, 2 * (costs.fast_trap_entry + 4 * costs.segment_reload + costs.fast_trap_return));
  EXPECT_GE(slow, 2 * fast);
}

TEST(Fastpath, ArmFcseSmallSpaceSwitchIsFree) {
  World off(IpcPath::kSlow, hwsim::MakeArmPlatform());
  World on(IpcPath::kCallOnly, hwsim::MakeArmPlatform());
  for (World* w : {&off, &on}) {
    // ARMv5 has no segmentation; FCSE's PID relocation stands in for it.
    ASSERT_EQ(w->kernel->SetSmallSpace(w->client_task, true), Err::kNone);
    ASSERT_EQ(w->kernel->SetSmallSpace(w->server_task, true), Err::kNone);
    (void)w->TimedCall(ukern::IpcMessage::Short(0));
  }
  const uint64_t slow = off.TimedCall(ukern::IpcMessage::Short(1));
  const uint64_t fast = on.TimedCall(ukern::IpcMessage::Short(1));
  const auto& costs = on.machine.costs();
  // segment_reload is pinned at 0 on ARM, so the round trip is exactly the
  // four fast trap transits — the FCSE switch itself charges nothing.
  EXPECT_EQ(fast, 2 * (costs.fast_trap_entry + costs.fast_trap_return));
  EXPECT_GE(slow, 2 * fast);
}

// --- Lazy scheduling --------------------------------------------------------------

TEST(Fastpath, LazySchedulingReconcilesRunQueueAtNextDecision) {
  World on(IpcPath::kFamily);
  // A stale entry: the server sits in the ready queue, then the fast path
  // direct-switches through it (leaving it kWaiting) without ever touching
  // the queue — Liedtke's lazy scheduling.
  on.kernel->run_queue().Enqueue(on.server, 128);
  ASSERT_EQ(on.kernel->run_queue().size(), 1u);
  (void)on.TimedCall(ukern::IpcMessage::Short(1));
  EXPECT_EQ(on.kernel->fastpath_stats().taken, 1u);
  EXPECT_EQ(on.kernel->run_queue().size(), 1u) << "fast path must not touch the run queue";
  // The next real schedule decision sweeps the stale entry.
  EXPECT_EQ(on.kernel->ActivateThread(on.client), Err::kNone);
  EXPECT_EQ(on.kernel->run_queue().size(), 0u);
  EXPECT_EQ(on.kernel->fastpath_stats().lazy_fixups, 1u);
}

// --- Checker integration ----------------------------------------------------------

size_t CountLint(Auditor& auditor, LintRule rule) {
  size_t n = 0;
  for (const auto& v : auditor.lint().violations()) {
    if (v.rule == rule) {
      ++n;
    }
  }
  return n;
}

TEST(FastpathMutation, SkippedReplyRecordCaughtByCrossingLint) {
  // A checker that never fires is indistinguishable from one that cannot:
  // make the fast path "forget" its reply crossing and the ledger lint must
  // flag the unbalanced call at the next quiescent point.
  ustack::UkernelStack::Config config;
  config.audit = true;
  // Call-only: with reply-wait armed the register-only reply leg records
  // l4.ipc.replywait instead, so this E21 hook would never fire (its E23
  // sibling is SkippedReplyWaitRecordCaughtByCrossingLint below).
  config.ipc_path = IpcPath::kCallOnly;
  ustack::UkernelStack stack(config);
  stack.kernel().TestSkipFastpathReplyRecord(true);
  auto pid = stack.guest_os(0).Spawn("mutant");
  ASSERT_EQ(stack.kernel().ActivateThread(stack.guest(0).app_thread), Err::kNone);
  // Spawn's internal server calls leave the os thread kRunning, so the first
  // syscall after it falls back (receiver not ready) and re-arms the receive
  // posture; the boot traffic also took the fast path before the auditor
  // attached. Delta the counter over several calls so the assertion is about
  // *these* calls, not boot's.
  const uint64_t taken_before = stack.kernel().fastpath_stats().taken;
  for (int i = 0; i < 4; ++i) {
    (void)stack.guest_os(0).Null(*pid);
  }
  ASSERT_GT(stack.kernel().fastpath_stats().taken, taken_before);
  stack.auditor()->Checkpoint("mutated-quiescent");
  EXPECT_GE(CountLint(*stack.auditor(), LintRule::kUnbalancedPair), 1u);
}

// --- E23: the rest of the Liedtke family ------------------------------------------

TEST(Fastpath, ReplyWaitCoalescesReplyAndReceiveOnArmFcse) {
  // The server's handler return IS its reply-and-wait: the stub that carried
  // the request is still resident, so a register-only reply from a living
  // server re-enters the kernel for free and the server parks in receive
  // without a scheduler pass. On ARM FCSE (switches free, segment_reload 0)
  // the round trip collapses from four fast transits to three:
  //   Call-only:  2 * (fast_trap_entry + fast_trap_return)
  //   family:     fast_trap_entry + 2 * fast_trap_return
  World callonly(IpcPath::kCallOnly, hwsim::MakeArmPlatform());
  World family(IpcPath::kFamily, hwsim::MakeArmPlatform());
  for (World* w : {&callonly, &family}) {
    ASSERT_EQ(w->kernel->SetSmallSpace(w->client_task, true), Err::kNone);
    ASSERT_EQ(w->kernel->SetSmallSpace(w->server_task, true), Err::kNone);
    (void)w->TimedCall(ukern::IpcMessage::Short(0));  // settle switch state
  }
  ukern::IpcMessage co_reply;
  ukern::IpcMessage fam_reply;
  const uint64_t co = callonly.TimedCall(ukern::IpcMessage::Short(1), &co_reply);
  const uint64_t fam = family.TimedCall(ukern::IpcMessage::Short(1), &fam_reply);
  const auto& costs = family.machine.costs();
  EXPECT_EQ(co, 2 * (costs.fast_trap_entry + costs.fast_trap_return));
  EXPECT_EQ(fam, costs.fast_trap_entry + 2 * costs.fast_trap_return);
  EXPECT_GE(static_cast<double>(co) / static_cast<double>(fam), 1.3);
  // Identical observable result; both settle and timed calls coalesced.
  EXPECT_EQ(fam_reply.regs[0], co_reply.regs[0]);
  EXPECT_EQ(family.kernel->fastpath_stats().replywait_coalesced, 2u);
  EXPECT_EQ(callonly.kernel->fastpath_stats().replywait_coalesced, 0u);
  // The server is parked back in receive, exactly as the slow path leaves it.
  EXPECT_EQ(family.kernel->FindThread(family.server)->state, ukern::ThreadState::kWaiting);
}

TEST(Fastpath, RegisterOnlySendMatchesSlowPathAndIsCheaper) {
  World off(IpcPath::kSlow);
  World on(IpcPath::kFamily);
  uint64_t cycles[2];
  uint64_t seen[2] = {0, 0};
  int i = 0;
  for (World* w : {&off, &on}) {
    uint64_t* slot = &seen[i];
    ASSERT_EQ(w->kernel->SetThreadHandler(w->server,
                                          [slot](ThreadId, ukern::IpcMessage msg) {
                                            *slot = msg.regs[0];
                                            return ukern::IpcMessage{};
                                          }),
              Err::kNone);
    const uint64_t t0 = w->machine.Now();
    EXPECT_EQ(w->kernel->Send(w->client, w->server, ukern::IpcMessage::Short(77)), Err::kNone);
    cycles[i++] = w->machine.Now() - t0;
  }
  EXPECT_EQ(seen[0], 77u);
  EXPECT_EQ(seen[1], seen[0]);
  EXPECT_EQ(on.kernel->fastpath_stats().send_fast, 1u);
  EXPECT_EQ(off.kernel->fastpath_stats().send_fast, 0u);
  EXPECT_LT(cycles[1], cycles[0]);
  // Same end state: the receiver is parked back in receive either way.
  EXPECT_EQ(on.kernel->FindThread(on.server)->state,
            off.kernel->FindThread(off.server)->state);
  EXPECT_EQ(on.kernel->FindThread(on.server)->messages_handled,
            off.kernel->FindThread(off.server)->messages_handled);
}

TEST(Fastpath, NotifyToWaitingReceiverMatchesSlowPathAndIsCheaper) {
  World off(IpcPath::kSlow);
  World on(IpcPath::kFamily);
  uint64_t cycles[2];
  std::vector<uint64_t> delivered[2];
  int i = 0;
  for (World* w : {&off, &on}) {
    std::vector<uint64_t>* log = &delivered[i];
    ASSERT_EQ(w->kernel->SetNotifyHandler(w->server,
                                          [log](uint64_t bits) { log->push_back(bits); }),
              Err::kNone);
    const uint64_t t0 = w->machine.Now();
    EXPECT_EQ(w->kernel->Notify(w->server, 0b101), Err::kNone);
    cycles[i++] = w->machine.Now() - t0;
  }
  EXPECT_EQ(delivered[0], (std::vector<uint64_t>{0b101}));
  EXPECT_EQ(delivered[1], delivered[0]);
  EXPECT_EQ(on.kernel->fastpath_stats().notify_fast, 1u);
  EXPECT_EQ(off.kernel->fastpath_stats().notify_fast, 0u);
  EXPECT_LT(cycles[1], cycles[0]);
  // Consumed latch and counted delivery, identically.
  EXPECT_EQ(on.kernel->FindThread(on.server)->pending_notify_bits, 0u);
  EXPECT_EQ(on.kernel->FindThread(on.server)->notifications,
            off.kernel->FindThread(off.server)->notifications);
}

TEST(Fastpath, NotifyBitsMergeWhileReceiverIsMidFastCall) {
  // Interleaving pin: bits latched while the receiver had no handler must
  // merge with bits notified mid-call, and the fast path must deliver the
  // same merged set the slow path does.
  World off(IpcPath::kSlow);
  World on(IpcPath::kFamily);
  std::vector<uint64_t> delivered[2];
  int i = 0;
  for (World* w : {&off, &on}) {
    // Latch 0x1 while the client has no notify handler: stays pending.
    ASSERT_EQ(w->kernel->Notify(w->client, 0x1), Err::kNone);
    std::vector<uint64_t>* log = &delivered[i];
    ASSERT_EQ(w->kernel->SetNotifyHandler(w->client,
                                          [log](uint64_t bits) { log->push_back(bits); }),
              Err::kNone);
    // The server notifies the client with 0x2 while the client is blocked in
    // its own fast Call to that server.
    ukern::Kernel* k = w->kernel.get();
    const ThreadId client = w->client;
    ASSERT_EQ(w->kernel->SetThreadHandler(w->server,
                                          [k, client](ThreadId, ukern::IpcMessage msg) {
                                            EXPECT_EQ(k->Notify(client, 0x2), Err::kNone);
                                            ukern::IpcMessage reply;
                                            reply.regs[0] = msg.regs[0] + 1;
                                            reply.reg_count = 1;
                                            return reply;
                                          }),
              Err::kNone);
    ukern::IpcMessage reply = w->kernel->Call(w->client, w->server, ukern::IpcMessage::Short(4));
    EXPECT_EQ(reply.status, Err::kNone);
    EXPECT_EQ(reply.regs[0], 5u);
    ++i;
  }
  // One delivery of the merged set, identical in both worlds.
  EXPECT_EQ(delivered[0], (std::vector<uint64_t>{0x3}));
  EXPECT_EQ(delivered[1], delivered[0]);
  EXPECT_GE(on.kernel->fastpath_stats().notify_fast, 1u);
  EXPECT_EQ(on.kernel->FindThread(on.client)->pending_notify_bits,
            off.kernel->FindThread(off.client)->pending_notify_bits);
}

TEST(Fastpath, ServerDeathBetweenReplyAndReceiveSynthesizesReply) {
  // Interleaving pin: the coalesced path fuses the reply with the next
  // receive — but if the server dies inside its handler there is no one to
  // park in receive, and the register-only reply it computed is void. Both
  // worlds must agree: the caller sees kDead from a kernel-synthesized
  // reply, and the crossing ledger stays balanced.
  for (IpcPath path : kAllPaths) {
    SCOPED_TRACE(PathName(path));
    World w(path);
    ucheck::Auditor::Options opts;
    ucheck::Auditor auditor(w.machine, opts);
    auditor.AttachUkernel(*w.kernel);
    ukern::Kernel* k = w.kernel.get();
    const ThreadId self = w.server;
    ASSERT_EQ(w.kernel->SetThreadHandler(w.server,
                                         [k, self](ThreadId, ukern::IpcMessage) {
                                           EXPECT_EQ(k->DestroyThread(self), Err::kNone);
                                           ukern::IpcMessage reply;
                                           reply.regs[0] = 99;
                                           reply.reg_count = 1;
                                           return reply;
                                         }),
              Err::kNone);
    ukern::IpcMessage reply = w.kernel->Call(w.client, w.server, ukern::IpcMessage::Short(1));
    EXPECT_EQ(reply.status, Err::kDead);
    if (path != IpcPath::kSlow) {
      EXPECT_EQ(w.kernel->fastpath_stats().taken, 1u);
      // Never coalesced: the death check runs before the coalesce decision.
      EXPECT_EQ(w.kernel->fastpath_stats().replywait_coalesced, 0u);
    }
    auditor.Checkpoint("after-death");
    EXPECT_EQ(auditor.violation_count(), 0u);
  }
}

TEST(Fastpath, DeadCallerGetsDeadOnFastAndSlowPaths) {
  // After its guest is killed, the guest OS thread's register-only Call to
  // the block server and Send to the net server, and a Call expecting a
  // string reply, all fail with kDead on both paths: no handler runs and
  // the kernel never switches back into the dead address space.
  for (IpcPath path : kAllPaths) {
    SCOPED_TRACE(PathName(path));
    ustack::UkernelStack::Config config;
    config.ipc_path = path;
    ustack::UkernelStack stack(config);
    ukern::Kernel& k = stack.kernel();
    const auto& g = stack.guest(0);
    ASSERT_EQ(stack.KillGuest(0), Err::kNone);
    const uint64_t served = stack.block_server().requests_served();
    const auto stats = k.fastpath_stats();

    EXPECT_EQ(k.Call(g.os_thread, stack.block_server().thread(),
                     ukern::IpcMessage::Short(minios::kBlkInfoLabel))
                  .status,
              Err::kDead);
    EXPECT_NE(stack.machine().cpu().current_domain(), g.os_task);
    EXPECT_EQ(k.Send(g.os_thread, stack.net_server().thread(),
                     ukern::IpcMessage::Short(minios::kNetAttachLabel, g.net_rx_thread.value())),
              Err::kDead);
    EXPECT_NE(stack.machine().cpu().current_domain(), g.os_task);
    EXPECT_EQ(k.Call(g.os_thread, stack.block_server().thread(),
                     ukern::IpcMessage::Short(minios::kBlkReadLabel, 0, 1))
                  .status,
              Err::kDead);
    EXPECT_EQ(stack.block_server().requests_served(), served);
    EXPECT_EQ(k.fastpath_stats().taken, stats.taken);
    EXPECT_EQ(k.fastpath_stats().send_fast, stats.send_fast);
    ASSERT_NE(stack.auditor(), nullptr);
    stack.auditor()->Checkpoint("after-dead-caller");
    EXPECT_EQ(stack.auditor()->violation_count(), 0u);
  }
}

TEST(Fastpath, DeadCallerLeavesInterruptsEnabledOnEveryPath) {
  // A Call or Send from a destroyed thread fails the kernel's argument
  // check. The kernel still leaves through LeaveKernelTo, which cannot
  // switch back into the dead caller: it idles with interrupts open again,
  // and only the trap entry and the check are charged.
  for (IpcPath path : kAllPaths) {
    for (bool send : {false, true}) {
      SCOPED_TRACE(std::string(PathName(path)) + (send ? ", send" : ", call"));
      World w(path);
      w.machine.cpu().SetInterruptsEnabled(true);
      ASSERT_EQ(w.kernel->DestroyThread(w.client), Err::kNone);
      const uint64_t handled = w.kernel->FindThread(w.server)->messages_handled;
      const uint64_t t0 = w.machine.Now();
      const ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
      const Err err = send ? w.kernel->Send(w.client, w.server, msg)
                           : w.kernel->Call(w.client, w.server, msg).status;
      EXPECT_EQ(err, Err::kDead);
      const hwsim::CostModel& costs = w.machine.costs();
      EXPECT_EQ(w.machine.Now() - t0, costs.trap_entry + costs.kernel_op);
      EXPECT_TRUE(w.machine.cpu().interrupts_enabled());
      EXPECT_NE(w.kernel->current_thread(), w.client);
      EXPECT_EQ(w.kernel->FindThread(w.server)->messages_handled, handled);
    }
  }
}

TEST(Fastpath, CallerKilledInsideHandlerGetsDeadOnEveryPath) {
  // Interleaving pin: the server's handler destroys its caller's thread, or
  // the caller's whole task, then returns a register-only reply. Whatever
  // the handler returned is void on every path: the caller sees kDead, the
  // kernel synthesizes exactly one l4.ipc.reply (never a coalesced
  // l4.ipc.replywait), and it never switches back into the dead space.
  for (IpcPath path : kAllPaths) {
    for (bool kill_task : {false, true}) {
      SCOPED_TRACE(std::string(PathName(path)) + (kill_task ? ", task" : ", thread"));
      World w(path);
      ucheck::Auditor::Options opts;
      ucheck::Auditor auditor(w.machine, opts);
      auditor.AttachUkernel(*w.kernel);
      ukern::Kernel* k = w.kernel.get();
      const ThreadId client = w.client;
      const ukvm::DomainId client_task = w.client_task;
      ASSERT_EQ(w.kernel->SetThreadHandler(
                    w.server,
                    [k, client, client_task, kill_task](ThreadId, ukern::IpcMessage msg) {
                      EXPECT_EQ(kill_task ? k->DestroyTask(client_task)
                                          : k->DestroyThread(client),
                                Err::kNone);
                      ukern::IpcMessage reply;
                      reply.regs[0] = msg.regs[0] + 1;
                      reply.reg_count = 1;
                      return reply;
                    }),
                Err::kNone);
      const uint64_t replies = w.machine.ledger().StatsFor("l4.ipc.reply").count;
      const uint64_t replywaits = w.machine.ledger().StatsFor("l4.ipc.replywait").count;
      ukern::IpcMessage reply = w.kernel->Call(client, w.server, ukern::IpcMessage::Short(41));
      EXPECT_EQ(reply.status, Err::kDead);
      EXPECT_EQ(reply.regs[0], 0u);
      EXPECT_EQ(w.machine.ledger().StatsFor("l4.ipc.reply").count, replies + 1);
      EXPECT_EQ(w.machine.ledger().StatsFor("l4.ipc.replywait").count, replywaits);
      EXPECT_NE(w.machine.cpu().current_domain(), client_task);
      EXPECT_NE(w.kernel->current_thread(), client);
      EXPECT_TRUE(w.machine.cpu().interrupts_enabled());
      EXPECT_EQ(w.kernel->fastpath_stats().taken, path == IpcPath::kSlow ? 0u : 1u);
      auditor.Checkpoint("after-caller-death");
      EXPECT_EQ(auditor.violation_count(), 0u);
    }
  }
}

TEST(Fastpath, OutOfRangeRegisterCountIsRejectedOnEveryPath) {
  // IpcMessage::reg_count is guest input: a count beyond the ABI's
  // kIpcRegWords registers gets kInvalidArgument before anything transfers
  // (no handler runs, no per-word charge), on Call and Send alike, and a
  // server that replies with one hands its caller kInvalidArgument.
  constexpr uint32_t kHostile = 0xFFFFFFFF;
  for (IpcPath path : kAllPaths) {
    SCOPED_TRACE(PathName(path));
    World w(path);
    const uint64_t handled = w.kernel->FindThread(w.server)->messages_handled;
    ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
    msg.reg_count = kHostile;
    uint64_t t0 = w.machine.Now();
    EXPECT_EQ(w.kernel->Call(w.client, w.server, msg).status, Err::kInvalidArgument);
    EXPECT_EQ(w.kernel->Send(w.client, w.server, msg), Err::kInvalidArgument);
    EXPECT_LT(w.machine.Now() - t0, 10'000u);
    EXPECT_EQ(w.kernel->FindThread(w.server)->messages_handled, handled);
    EXPECT_EQ(w.kernel->fastpath_stats().taken, 0u);
    EXPECT_EQ(w.kernel->fastpath_stats().send_fast, 0u);

    ASSERT_EQ(w.kernel->SetThreadHandler(w.server,
                                         [](ThreadId, ukern::IpcMessage) {
                                           ukern::IpcMessage reply = ukern::IpcMessage::Short(7);
                                           reply.reg_count = kHostile;
                                           return reply;
                                         }),
              Err::kNone);
    t0 = w.machine.Now();
    ukern::IpcMessage reply = w.kernel->Call(w.client, w.server, ukern::IpcMessage::Short(1));
    EXPECT_EQ(reply.status, Err::kInvalidArgument);
    EXPECT_LT(w.machine.Now() - t0, 10'000u);
    EXPECT_EQ(w.kernel->FindThread(w.server)->messages_handled, handled + 1);
    EXPECT_EQ(w.kernel->fastpath_stats().replywait_coalesced, 0u);
  }
}

TEST(Fastpath, PinnedWindowAmortisesBurstAndEvictsAcrossVcpus) {
  // The per-vCPU pinned window: the second same-page string in a burst
  // skips the temp-map PTE write; switching vCPUs must not let one vCPU
  // ride a window pinned on another.
  World on(IpcPath::kFamily, hwsim::MakeX86Platform(), /*num_vcpus=*/2);
  ukern::IpcMessage msg = ukern::IpcMessage::Short(1);
  msg.has_string = true;
  msg.string = ukern::StringItem{kClientWin, 200};
  const uint64_t c1 = on.TimedCall(msg);
  EXPECT_EQ(on.kernel->fastpath_stats().window_pins, 0u);
  const uint64_t c2 = on.TimedCall(msg);
  EXPECT_EQ(on.kernel->fastpath_stats().window_pins, 1u);
  // The pin saves exactly the temp-map PTE write, nothing else.
  EXPECT_EQ(c1 - c2, on.machine.costs().pte_write);
  // vCPU 1 has its own (empty) window: no pin on its first string.
  on.machine.SwitchVcpu(1);
  (void)on.TimedCall(msg);
  EXPECT_EQ(on.kernel->fastpath_stats().window_pins, 1u);
  (void)on.TimedCall(msg);
  EXPECT_EQ(on.kernel->fastpath_stats().window_pins, 2u);

  // Contrast: with the pin disabled (E21 Call-only), every string pays the
  // PTE write and a burst is flat.
  World callonly(IpcPath::kCallOnly, hwsim::MakeX86Platform());
  const uint64_t k1 = callonly.TimedCall(msg);
  const uint64_t k2 = callonly.TimedCall(msg);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(callonly.kernel->fastpath_stats().window_pins, 0u);
}

// The pager fault-IPC harness: a pager task whose handler maps a fresh page
// per fault, and a faulting task bound to it.
struct PagedWorld {
  hwsim::Machine machine;
  std::unique_ptr<ukern::Kernel> kernel;
  ukvm::DomainId pager_task;
  ThreadId pager;
  ukvm::DomainId task;
  ThreadId thread;
  int faults_served = 0;
  bool kill_pager_on_fault = false;

  explicit PagedWorld(IpcPath path) : machine(hwsim::MakeX86Platform(), 16 << 20) {
    kernel = std::make_unique<ukern::Kernel>(machine);
    kernel->SetIpcPath(path);
    auto pt = kernel->CreateTask(ThreadId::Invalid());
    pager_task = *pt;
    auto pth = kernel->CreateThread(*pt, 255, [this](ThreadId, ukern::IpcMessage msg) {
      ++faults_served;
      if (kill_pager_on_fault) {
        // The pager's task dies while the fault IPC is in flight: whatever
        // we return here is void (a dead pager cannot map anything).
        EXPECT_EQ(kernel->DestroyTask(pager_task), Err::kNone);
        return ukern::IpcMessage{};
      }
      const hwsim::Vaddr fault_va = msg.regs[1];
      auto frame = machine.memory().AllocFrame(pager_task);
      EXPECT_TRUE(frame.ok());
      ukern::Task* t = kernel->FindTask(pager_task);
      const hwsim::Vaddr src = machine.memory().FrameBase(*frame);
      EXPECT_EQ(t->space.Map(src, *frame, hwsim::PtePerms{true, true}), Err::kNone);
      kernel->mapdb().AddRoot(pager_task, t->space.VpnOf(src), *frame);
      ukern::IpcMessage reply;
      reply.map_items.push_back(ukern::MapItem{
          src, fault_va & ~(machine.memory().page_size() - 1), 1, true, false});
      return reply;
    });
    pager = *pth;
    auto ft = kernel->CreateTask(pager);
    task = *ft;
    auto fth = kernel->CreateThread(*ft, 100, nullptr);
    thread = *fth;
  }
};

TEST(Fastpath, PagerFaultIpcRidesFastStubs) {
  PagedWorld off(IpcPath::kSlow);
  PagedWorld on(IpcPath::kFamily);
  uint64_t cycles[2];
  int i = 0;
  for (PagedWorld* w : {&off, &on}) {
    const uint64_t t0 = w->machine.Now();
    EXPECT_EQ(w->kernel->TouchPage(w->thread, 0x555000, /*write=*/true), Err::kNone);
    cycles[i++] = w->machine.Now() - t0;
    // The mapping really arrived: a second touch is a TLB-walk hit.
    EXPECT_EQ(w->kernel->TouchPage(w->thread, 0x555800, true), Err::kNone);
    EXPECT_EQ(w->faults_served, 1);
  }
  EXPECT_EQ(on.kernel->fastpath_stats().fault_fast, 1u);
  EXPECT_EQ(off.kernel->fastpath_stats().fault_fast, 0u);
  // Only the two kernel<->pager crossings went fast; the hardware fault
  // trap and the pager's mapping work are charged identically.
  const auto& costs = on.machine.costs();
  EXPECT_EQ(cycles[0] - cycles[1], (costs.trap_entry - costs.fast_trap_entry) +
                                       (costs.trap_return - costs.fast_trap_return));
}

TEST(Fastpath, PagerDeathMidFaultIpcSynthesizesReply) {
  // Interleaving pin: the pager dies while handling the fault. The kernel
  // synthesizes the reply crossing on its behalf, the faulter sees kDead,
  // no mapping is applied, and the ledger stays balanced — identically on
  // the fast and slow fault paths.
  for (IpcPath path : kAllPaths) {
    SCOPED_TRACE(PathName(path));
    PagedWorld w(path);
    ucheck::Auditor::Options opts;
    ucheck::Auditor auditor(w.machine, opts);
    auditor.AttachUkernel(*w.kernel);
    w.kill_pager_on_fault = true;
    EXPECT_EQ(w.kernel->TouchPage(w.thread, 0x555000, true), Err::kDead);
    EXPECT_EQ(w.faults_served, 1);
    EXPECT_EQ(w.kernel->fastpath_stats().fault_fast, path == IpcPath::kFamily ? 1u : 0u);
    // The doomed handler's reply was void: nothing was mapped.
    ukern::Task* t = w.kernel->FindTask(w.task);
    const hwsim::Pte* pte = t->space.Walk(0x555000);
    EXPECT_TRUE(pte == nullptr || !pte->present);
    auditor.Checkpoint("after-pager-death");
    EXPECT_EQ(auditor.violation_count(), 0u);
  }
}

TEST(FastpathMutation, SkippedReplyWaitRecordCaughtByCrossingLint) {
  // The E23 sibling of SkippedReplyRecordCaughtByCrossingLint: the coalesced
  // reply-receive leg records l4.ipc.replywait to close the call pairing.
  // Make it "forget" and the ledger lint must flag the unbalanced call.
  ustack::UkernelStack::Config config;
  config.audit = true;
  config.ipc_path = IpcPath::kFamily;  // register-only replies coalesce
  ustack::UkernelStack stack(config);
  stack.kernel().TestSkipReplyWaitRecord(true);
  auto pid = stack.guest_os(0).Spawn("mutant");
  ASSERT_EQ(stack.kernel().ActivateThread(stack.guest(0).app_thread), Err::kNone);
  const uint64_t coalesced_before = stack.kernel().fastpath_stats().replywait_coalesced;
  for (int i = 0; i < 4; ++i) {
    (void)stack.guest_os(0).Null(*pid);
  }
  ASSERT_GT(stack.kernel().fastpath_stats().replywait_coalesced, coalesced_before);
  stack.auditor()->Checkpoint("mutated-quiescent");
  EXPECT_GE(CountLint(*stack.auditor(), LintRule::kUnbalancedPair), 1u);
}

TEST(FastpathMutation, HonestFastpathIsLedgerClean) {
  // The control: the unmutated fast path balances every call with a reply.
  ustack::UkernelStack::Config config;
  config.audit = true;
  config.race_detect = true;
  config.ipc_path = IpcPath::kFamily;
  ustack::UkernelStack stack(config);
  auto pid = stack.guest_os(0).Spawn("clean");
  ASSERT_EQ(stack.kernel().ActivateThread(stack.guest(0).app_thread), Err::kNone);
  const uint64_t taken_before = stack.kernel().fastpath_stats().taken;
  for (int i = 0; i < 8; ++i) {
    (void)stack.guest_os(0).Null(*pid);
  }
  ASSERT_GT(stack.kernel().fastpath_stats().taken, taken_before);
  stack.auditor()->Checkpoint("honest-quiescent");
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);
}

}  // namespace
