// E15 — chaos soak: both architectures under one seeded fault schedule.
//
// The paper's availability story (§3.1) is usually told with clean kills
// (E5/E14). Real devices fail messier: dropped frames, flaky sectors,
// latency spikes, lost completion interrupts. This bench attaches the same
// seeded FaultPlan — background noise plus deterministic "storm" windows
// where the disk errors every request — to the microkernel stack, the
// disaggregated VMM (Parallax storage VM), and the consolidated VMM (all
// drivers in Dom0), then soaks each with file churn + datagram sends while
// a watchdog probes the storage/net services through their ordinary
// request paths and drives the stack's existing restart procedure.
//
// Everything below is deterministic: same seed, same schedule, same table
// on every run. No Restart* is called by the bench body — recovery is the
// watchdog's job.

#include <cstdio>
#include <string>
#include <vector>

#include "src/experiments/table.h"
#include "src/hw/fault_injector.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/stacks/watchdog.h"
#include "src/workloads/oswork.h"

namespace {

constexpr int kRounds = 24;

// One fault schedule for every architecture. Background noise on every
// class, plus a recurring 3M-cycle storm window (every 12M cycles) in
// which the disk fails *every* request — long enough to outlast the
// drivers' retry budgets, so the breaker opens, probes fail, and the
// watchdog has real work to do; short enough that recovery is observable.
hwsim::FaultPlan ChaosPlan() {
  hwsim::FaultPlan plan;
  plan.seed = 0x20050605;  // fixed: the whole point is one shared schedule

  plan.nic_tx_drop.probability = 0.04;
  plan.nic_corrupt.probability = 0.02;

  plan.disk_read_error.probability = 0.01;
  plan.disk_read_error.burst_period = 12'000'000;
  plan.disk_read_error.burst_start = 2'000'000;
  plan.disk_read_error.burst_len = 3'000'000;
  plan.disk_read_error.burst_probability = 1.0;
  plan.disk_write_error.probability = 0.01;
  plan.disk_write_error.burst_period = 12'000'000;
  plan.disk_write_error.burst_start = 8'000'000;  // offset from the read storm:
  plan.disk_write_error.burst_len = 3'000'000;    // it must overlap the phase
  plan.disk_write_error.burst_probability = 1.0;  // where the workload writes

  plan.disk_latency.probability = 0.03;
  plan.disk_latency_spike_cycles = 40'000;

  plan.irq_lost.probability = 0.01;
  plan.irq_spurious.probability = 0.01;
  return plan;
}

udrv::RetryPolicy DiskRetry() {
  udrv::RetryPolicy p;
  p.max_attempts = 3;
  p.timeout_cycles = 500'000;  // catches lost completion IRQs
  p.backoff_cycles = 60'000;
  return p;
}

udrv::RetryPolicy NicRetry() {
  udrv::RetryPolicy p;
  p.max_attempts = 3;
  p.backoff_cycles = 20'000;
  return p;
}

ustack::DegradePolicy Degrade() {
  ustack::DegradePolicy p;
  p.fail_threshold = 3;         // consecutive device failures to open the breaker
  p.cooldown_cycles = 400'000;  // short enough to half-close between rounds
  return p;
}

ustack::Watchdog::Policy WatchdogPolicy() {
  ustack::Watchdog::Policy p;
  p.probe_interval = 250'000;
  p.fail_threshold = 2;
  p.restart_budget = 5;
  p.restart_backoff_cycles = 400'000;
  return p;
}

struct SoakResult {
  uint64_t ops_attempted = 0;
  uint64_t ops_succeeded = 0;
  uint64_t injected = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t restarts = 0;
  uint64_t recovery_cycles = 0;
  std::vector<std::pair<std::string, uint64_t>> fault_counts;

  double Availability() const {
    return ops_attempted == 0
               ? 0.0
               : static_cast<double>(ops_succeeded) / static_cast<double>(ops_attempted);
  }
};

// Boots a stack hardened against the plan, puts its storage service (and,
// with `watch_net`, its net service) under a watchdog, arms the chaos plan
// after a clean boot (steady state first, then the storm), soaks with the
// mixed workload, and lets the watchdog poll between rounds. Identical for
// every stack type.
template <typename StackT>
SoakResult Soak(typename StackT::Config config, bool watch_net) {
  config.disk_retry = DiskRetry();
  config.nic_retry = NicRetry();
  config.degrade = Degrade();
  StackT stack(config);
  hwsim::Machine& machine = stack.machine();
  ustack::Watchdog wd(machine, WatchdogPolicy());
  wd.Watch("storage", [&] { return stack.ProbeStorageService(); },
           [&] { (void)stack.RestartStorage(); });
  if (watch_net) {
    wd.Watch("net", [&] { return stack.ProbeNetService(); },
             [&] { (void)stack.RestartNetService(); });
  }
  SoakResult r;

  ukvm::ProcessId pid{};
  stack.RunAsApp(0, [&] { pid = *stack.guest_os(0).Spawn("chaos"); });

  stack.ArmFaults(ChaosPlan());
  for (int round = 0; round < kRounds; ++round) {
    stack.RunAsApp(0, [&] {
      minios::Os& os = stack.guest_os(0);
      std::string prefix = "c";
      prefix += std::to_string(round);
      prefix += "_";
      const uwork::WorkloadResult churn = uwork::RunFileChurn(
          machine, os, pid, /*files=*/2, /*bytes_per_file=*/256, prefix);
      const uwork::WorkloadResult net =
          uwork::RunUdpSend(machine, os, pid, /*dst_port=*/7, /*payload_size=*/128, /*count=*/4);
      r.ops_attempted += churn.ops_attempted + net.ops_attempted;
      r.ops_succeeded += churn.ops_succeeded + net.ops_succeeded;
    });
    // Pump idle time after each burst of work, polling the watchdog as we
    // go. The slice length varies per round so probe times don't
    // phase-lock to the storm period — a storm the supervisor never
    // observes is a storm it cannot act on.
    for (int pump = 0; pump < 7; ++pump) {
      wd.Poll();
      machine.RunFor(260'000 + 40'000 * static_cast<uint64_t>(round % 5));
    }
  }

  r.injected = stack.fault_injector()->injected_total();
  r.retries = machine.counters().Get("drv.disk.retry") + machine.counters().Get("drv.nic.retry");
  r.degraded = machine.counters().Get("svc.degraded_reply");
  r.restarts = wd.restarts_total();
  for (const ustack::Watchdog::ServiceStats& s : wd.stats()) {
    r.probes += s.probes;
    r.probe_failures += s.probe_failures;
    r.recovery_cycles += s.recovery_cycles;
  }
  for (const char* name : {"fault.nic.tx_drop", "fault.nic.corrupt", "fault.disk.read_error",
                           "fault.disk.write_error", "fault.disk.latency", "fault.irq.lost",
                           "fault.irq.spurious"}) {
    r.fault_counts.emplace_back(name, machine.counters().Get(name));
  }
  return r;
}

std::vector<std::string> Row(const std::string& arch, const SoakResult& r) {
  return {arch,
          uharness::FmtInt(r.injected),
          uharness::FmtInt(r.retries),
          uharness::FmtInt(r.degraded),
          uharness::FmtInt(r.probe_failures) + "/" + uharness::FmtInt(r.probes),
          uharness::FmtInt(r.restarts),
          uharness::FmtCycles(r.recovery_cycles),
          uharness::FmtPercent(r.Availability())};
}

}  // namespace

int main() {
  uharness::PrintHeading("E15",
                         "chaos soak: seeded device faults vs retries, breakers, and a watchdog");

  uharness::Table table("soak under one seeded fault schedule (storms included)",
                        {"architecture", "faults injected", "driver retries", "degraded replies",
                         "probe fails/total", "watchdog restarts", "recovery cycles",
                         "availability"});
  uharness::Table faults("injected faults by class",
                         {"fault class", "ukernel", "vmm + parallax", "vmm dom0 storage"});

  // The VMM rows watch only storage; the ukernel row also watches its net
  // server.
  const SoakResult uk = Soak<ustack::UkernelStack>({}, /*watch_net=*/true);
  table.AddRow(Row("ukernel", uk));
  ustack::VmmStack::Config parallax;
  parallax.parallax_storage = true;
  const SoakResult vp = Soak<ustack::VmmStack>(parallax, /*watch_net=*/false);
  table.AddRow(Row("vmm + parallax", vp));
  const SoakResult vd = Soak<ustack::VmmStack>({}, /*watch_net=*/false);  // blkback in Dom0
  table.AddRow(Row("vmm dom0 storage", vd));
  table.Print();

  for (size_t i = 0; i < uk.fault_counts.size(); ++i) {
    faults.AddRow({uk.fault_counts[i].first, uharness::FmtInt(uk.fault_counts[i].second),
                   uharness::FmtInt(vp.fault_counts[i].second),
                   uharness::FmtInt(vd.fault_counts[i].second)});
  }
  faults.Print();

  std::printf(
      "\nShape check: every architecture keeps serving (availability > 0) through the\n"
      "same storms — retries absorb transient faults, breakers turn persistent ones\n"
      "into bounded error replies, and the watchdog restarts via each stack's own\n"
      "recovery path (never a private back door). The schedule is seeded: a second\n"
      "run prints this table bit-identically.\n");
  uharness::WriteJsonIfRequested("E15");
  const bool ok = uk.Availability() > 0.0 && vp.Availability() > 0.0 && vd.Availability() > 0.0;
  if (!ok) {
    std::printf("FAIL: an architecture lost all availability under the soak\n");
    return 1;
  }
  return 0;
}
