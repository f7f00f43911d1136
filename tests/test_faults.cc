// Tests for the E15 chaos machinery: the seeded fault injector, the disk
// driver's retry/timeout policies, the service watchdog, and whole-stack
// reproducibility (one seed ⇒ one bit-identical schedule and outcome).

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/drivers/disk_driver.h"
#include "src/drivers/retry_policy.h"
#include "src/hw/disk.h"
#include "src/hw/fault_injector.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/watchdog.h"
#include "src/workloads/oswork.h"

namespace {

using hwsim::Disk;
using hwsim::FaultInjector;
using hwsim::FaultPlan;
using hwsim::Frame;
using hwsim::Machine;
using hwsim::MakeX86Platform;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;

FaultPlan BackgroundPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.nic_tx_drop.probability = 0.10;
  plan.nic_rx_drop.probability = 0.05;
  plan.nic_corrupt.probability = 0.05;
  plan.disk_read_error.probability = 0.10;
  plan.disk_write_error.probability = 0.10;
  plan.disk_latency.probability = 0.10;
  plan.disk_latency_spike_cycles = 5'000;
  plan.irq_lost.probability = 0.05;
  plan.irq_spurious.probability = 0.05;
  return plan;
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule) {
  Machine m1(MakeX86Platform(), 1 << 20);
  Machine m2(MakeX86Platform(), 1 << 20);
  FaultInjector a(m1, BackgroundPlan(42));
  FaultInjector b(m2, BackgroundPlan(42));

  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.DropTxFrame(), b.DropTxFrame()) << i;
    EXPECT_EQ(a.DropRxFrame(), b.DropRxFrame()) << i;
    EXPECT_EQ(a.DiskIoError(false), b.DiskIoError(false)) << i;
    EXPECT_EQ(a.DiskIoError(true), b.DiskIoError(true)) << i;
    EXPECT_EQ(a.DiskExtraLatency(), b.DiskExtraLatency()) << i;
    EXPECT_EQ(a.LoseIrq(), b.LoseIrq()) << i;
    EXPECT_EQ(a.SpuriousIrq(), b.SpuriousIrq()) << i;
  }
  EXPECT_GT(a.injected_total(), 0u);
  EXPECT_EQ(a.injected_total(), b.injected_total());
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  Machine m1(MakeX86Platform(), 1 << 20);
  Machine m2(MakeX86Platform(), 1 << 20);
  FaultInjector a(m1, BackgroundPlan(1));
  FaultInjector b(m2, BackgroundPlan(2));
  int diverged = 0;
  for (int i = 0; i < 500; ++i) {
    diverged += a.DropTxFrame() != b.DropTxFrame();
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjector, StreamsAreDecorrelated) {
  // Consuming one class's stream must not shift another class's schedule.
  Machine m1(MakeX86Platform(), 1 << 20);
  Machine m2(MakeX86Platform(), 1 << 20);
  FaultInjector a(m1, BackgroundPlan(42));
  FaultInjector b(m2, BackgroundPlan(42));
  for (int i = 0; i < 100; ++i) {
    (void)a.DropTxFrame();  // only a consumes the nic stream
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.DiskIoError(false), b.DiskIoError(false)) << i;
  }
}

TEST(FaultInjector, BurstWindowKeysOffSimulatedTime) {
  Machine machine(MakeX86Platform(), 1 << 20);
  FaultPlan plan;
  plan.seed = 7;
  plan.disk_read_error.probability = 0.0;  // quiet outside the storm
  plan.disk_read_error.burst_period = 1'000;
  plan.disk_read_error.burst_start = 100;
  plan.disk_read_error.burst_len = 100;
  plan.disk_read_error.burst_probability = 1.0;
  FaultInjector inj(machine, plan);

  EXPECT_EQ(inj.DiskIoError(false), Err::kNone);  // phase 0: before the storm
  machine.RunFor(150);
  EXPECT_EQ(inj.DiskIoError(false), Err::kCorrupted);  // phase 150: inside
  machine.RunFor(100);
  EXPECT_EQ(inj.DiskIoError(false), Err::kNone);  // phase 250: after
  machine.RunFor(850);
  EXPECT_EQ(inj.DiskIoError(false), Err::kCorrupted);  // phase 1100: next period
  EXPECT_EQ(machine.counters().Get("fault.disk.read_error"), 2u);
  EXPECT_EQ(inj.injected_total(), 2u);
}

TEST(FaultInjector, CorruptFrameFlipsAByte) {
  Machine machine(MakeX86Platform(), 1 << 20);
  FaultPlan plan;
  plan.seed = 3;
  plan.nic_corrupt.probability = 1.0;
  FaultInjector inj(machine, plan);
  std::vector<uint8_t> frame(64, 0xAA);
  const std::vector<uint8_t> orig = frame;
  ASSERT_TRUE(inj.CorruptFrame(frame));
  EXPECT_NE(frame, orig);
}

// --- Disk driver retry policies ---------------------------------------------

class DiskRetryTest : public ::testing::Test {
 protected:
  DiskRetryTest()
      : machine_(MakeX86Platform(), 1 << 20),
        disk_(machine_, IrqLine(6), {}),
        driver_(machine_, disk_) {}

  Frame Alloc() {
    auto f = machine_.memory().AllocFrame(DomainId(1));
    EXPECT_TRUE(f.ok());
    return *f;
  }

  // Unit tests deliver completion interrupts by hand: drain events, then
  // reap, until the callback fires (bounded so failures don't hang).
  void PumpUntil(const bool& done) {
    for (int i = 0; i < 64 && !done; ++i) {
      machine_.RunUntilIdle();
      driver_.OnInterrupt();
    }
  }

  Machine machine_;
  Disk disk_;
  udrv::DiskDriver driver_;
};

TEST_F(DiskRetryTest, RetriesThroughTransientErrors) {
  // Storm covers the first attempt only; the backoff'd resubmit lands after
  // it and succeeds.
  FaultPlan plan;
  plan.seed = 5;
  plan.disk_read_error.burst_period = 100'000'000;
  plan.disk_read_error.burst_start = 0;
  plan.disk_read_error.burst_len = 100'000;
  plan.disk_read_error.burst_probability = 1.0;
  FaultInjector inj(machine_, plan);
  disk_.SetFaultInjector(&inj);

  driver_.SetRetryPolicy({.max_attempts = 3, .timeout_cycles = 0, .backoff_cycles = 300'000});

  bool done = false;
  Err status = Err::kBusy;
  ASSERT_EQ(driver_.Read(0, 1, Alloc(), [&](Err s) {
    status = s;
    done = true;
  }), Err::kNone);
  PumpUntil(done);

  ASSERT_TRUE(done);
  EXPECT_EQ(status, Err::kNone);
  EXPECT_EQ(driver_.retries(), 1u);
  // Counters are the observable contract: benches and supervisors read them.
  EXPECT_EQ(machine_.counters().Get("drv.disk.retry"), 1u);
  EXPECT_EQ(machine_.counters().Get("fault.disk.read_error"), 1u);
}

TEST_F(DiskRetryTest, ExhaustsRetriesAgainstPersistentErrors) {
  FaultPlan plan;
  plan.seed = 5;
  plan.disk_read_error.probability = 1.0;  // the device never recovers
  FaultInjector inj(machine_, plan);
  disk_.SetFaultInjector(&inj);

  driver_.SetRetryPolicy({.max_attempts = 3, .timeout_cycles = 0, .backoff_cycles = 10'000});

  bool done = false;
  Err status = Err::kNone;
  ASSERT_EQ(driver_.Read(0, 1, Alloc(), [&](Err s) {
    status = s;
    done = true;
  }), Err::kNone);
  PumpUntil(done);

  ASSERT_TRUE(done);
  EXPECT_EQ(status, Err::kRetryExhausted);
  EXPECT_EQ(driver_.retries(), 2u);
  EXPECT_EQ(machine_.counters().Get("drv.disk.retry"), 2u);
  EXPECT_EQ(machine_.counters().Get("drv.disk.exhausted"), 1u);
}

TEST_F(DiskRetryTest, RawErrorPassesThroughWithoutRetries) {
  // With retries disabled the device's own status reaches the caller.
  FaultPlan plan;
  plan.seed = 5;
  plan.disk_read_error.probability = 1.0;
  FaultInjector inj(machine_, plan);
  disk_.SetFaultInjector(&inj);

  bool done = false;
  Err status = Err::kNone;
  ASSERT_EQ(driver_.Read(0, 1, Alloc(), [&](Err s) {
    status = s;
    done = true;
  }), Err::kNone);
  PumpUntil(done);
  ASSERT_TRUE(done);
  EXPECT_EQ(status, Err::kCorrupted);
  EXPECT_EQ(driver_.retries(), 0u);
}

TEST_F(DiskRetryTest, TimesOutOnLostInterrupts) {
  FaultPlan plan;
  plan.seed = 5;
  plan.irq_lost.probability = 1.0;  // every completion edge is swallowed
  FaultInjector inj(machine_, plan);
  disk_.SetFaultInjector(&inj);

  driver_.SetRetryPolicy(
      {.max_attempts = 2, .timeout_cycles = 1'000'000, .backoff_cycles = 10'000});

  bool done = false;
  Err status = Err::kNone;
  ASSERT_EQ(driver_.Read(0, 1, Alloc(), [&](Err s) {
    status = s;
    done = true;
  }), Err::kNone);
  // No interrupts will arrive; the per-attempt timeout must drive both the
  // resubmit and the terminal verdict.
  machine_.RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_EQ(status, Err::kTimedOut);
  EXPECT_EQ(driver_.timeouts(), 2u);
  EXPECT_EQ(machine_.counters().Get("drv.disk.timeout"), 2u);
  EXPECT_EQ(machine_.counters().Get("fault.irq.lost"), 2u);
}

// --- Watchdog ---------------------------------------------------------------

TEST(Watchdog, RestartsAKilledServerWithinBudget) {
  ustack::UkernelStack stack;
  ASSERT_EQ(stack.ProbeStorageService(), Err::kNone);  // healthy baseline

  ASSERT_EQ(stack.KillStorage(), Err::kNone);
  ASSERT_NE(stack.ProbeStorageService(), Err::kNone);

  ustack::Watchdog::Policy policy;
  policy.probe_interval = 1'000;
  policy.fail_threshold = 2;
  policy.restart_budget = 2;
  ustack::Watchdog wd(stack.machine(), policy);
  wd.Watch("blk", [&] { return stack.ProbeStorageService(); },
           [&] { (void)stack.RestartStorage(); });

  for (int i = 0; i < 4; ++i) {
    stack.machine().RunFor(2'000);
    wd.Poll();
  }

  EXPECT_EQ(wd.restarts_total(), 1u);
  EXPECT_EQ(stack.machine().counters().Get("watchdog.restart"), 1u);
  EXPECT_GT(stack.machine().counters().Get("watchdog.probe_fail"), 0u);
  EXPECT_EQ(stack.ProbeStorageService(), Err::kNone);  // service is back

  const auto& stats = wd.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].healthy);
  EXPECT_GT(stats[0].recovery_cycles, 0u);  // first fail → healthy again
  EXPECT_FALSE(stats[0].budget_exhausted);
}

TEST(Watchdog, BudgetBoundsRestartChurn) {
  ustack::UkernelStack stack;
  ustack::Watchdog::Policy policy;
  policy.probe_interval = 1'000;
  policy.fail_threshold = 1;
  policy.restart_budget = 2;
  ustack::Watchdog wd(stack.machine(), policy);
  // A probe that always fails and a restart that never helps.
  wd.Watch("doomed", [] { return Err::kDead; }, [] {});

  for (int i = 0; i < 8; ++i) {
    stack.machine().RunFor(2'000);
    wd.Poll();
  }
  EXPECT_EQ(wd.restarts_total(), 2u);  // capped, not 8
  ASSERT_EQ(wd.stats().size(), 1u);
  EXPECT_TRUE(wd.stats()[0].budget_exhausted);
  EXPECT_EQ(stack.machine().counters().Get("watchdog.budget_exhausted"), 1u);
}

// --- Breaker ----------------------------------------------------------------

TEST(ServiceHealth, TripsAfterConsecutiveFailuresAndHalfCloses) {
  Machine machine(MakeX86Platform(), 1 << 20);
  ustack::ServiceHealth health(machine, "svc");
  health.SetPolicy({.fail_threshold = 3, .cooldown_cycles = 1'000});

  EXPECT_FALSE(health.ShouldFastFail());
  health.RecordFailure();
  health.RecordFailure();
  EXPECT_FALSE(health.open());
  health.RecordFailure();  // third consecutive: trips
  EXPECT_TRUE(health.open());
  EXPECT_TRUE(health.ShouldFastFail());
  EXPECT_EQ(health.degraded_replies(), 1u);
  EXPECT_EQ(machine.counters().Get("svc.degraded_reply"), 1u);
  EXPECT_EQ(machine.counters().Get("svc.breaker_trip"), 1u);

  machine.RunFor(1'500);  // past the cooldown: half-close
  EXPECT_FALSE(health.ShouldFastFail());
  health.RecordFailure();  // one failure while half-open re-trips
  EXPECT_TRUE(health.open());

  machine.RunFor(1'500);
  EXPECT_FALSE(health.ShouldFastFail());
  health.RecordSuccess();  // recovery closes it for good
  EXPECT_FALSE(health.open());
  EXPECT_FALSE(health.ShouldFastFail());
}

// --- Whole-stack reproducibility --------------------------------------------

// One seeded chaos run: boot a microkernel stack with faults armed from the
// start, push a small mixed workload through it, probe both services, and
// fingerprint everything observable.
std::tuple<uint64_t, uint64_t, std::vector<std::pair<std::string, uint64_t>>> ChaosRun() {
  ustack::UkernelStack::Config config;
  config.faults = BackgroundPlan(99);
  config.faults.disk_read_error.probability = 0.02;  // boot must have a chance
  config.faults.disk_write_error.probability = 0.02;
  config.faults.irq_lost.probability = 0.0;
  config.disk_retry = {.max_attempts = 3, .timeout_cycles = 0, .backoff_cycles = 20'000};
  config.nic_retry = {.max_attempts = 2, .timeout_cycles = 0, .backoff_cycles = 10'000};
  config.degrade = {.fail_threshold = 3, .cooldown_cycles = 100'000};
  ustack::UkernelStack stack(config);
  auto& machine = stack.machine();

  ukvm::ProcessId pid{};
  stack.RunAsApp(0, [&] { pid = *stack.guest_os(0).Spawn("chaos"); });
  stack.RunAsApp(0, [&] {
    auto& os = stack.guest_os(0);
    (void)uwork::RunFileChurn(machine, os, pid, 3, 512, "det");
    (void)uwork::RunUdpSend(machine, os, pid, 7, 256, 8);
  });
  (void)stack.ProbeStorageService();
  (void)stack.ProbeNetService();
  machine.RunFor(100'000);

  return {machine.Now(), machine.ledger().total_count(), machine.counters().All()};
}

TEST(ChaosDeterminism, SameSeedSameRunBitForBit) {
  const auto run1 = ChaosRun();
  const auto run2 = ChaosRun();
  EXPECT_EQ(std::get<0>(run1), std::get<0>(run2));  // simulated clock
  EXPECT_EQ(std::get<1>(run1), std::get<1>(run2));  // crossing ledger
  EXPECT_EQ(std::get<2>(run1), std::get<2>(run2));  // every counter, incl. fault.*
  // And the chaos actually happened: the schedule injected faults.
  uint64_t injected = 0;
  for (const auto& [name, value] : std::get<2>(run1)) {
    if (name.starts_with("fault.")) {
      injected += value;
    }
  }
  EXPECT_GT(injected, 0u);
}

}  // namespace
