// The observer matrix: every observer alone and all of them at once, on
// every workload shape the E17/E20/E22 claims rest on.
//
// Four observers watch the simulated machine: the isolation auditor
// (src/check), its happens-before race detector (E20), the flight recorder
// / histograms / profiler (E17) and the causal request tracer (E22). None
// of them may charge a simulated cycle, so any combination leaves every
// measured number byte-identical. This bench runs six shapes under six
// cells — none, each observer alone, all four — and exits non-zero unless:
//
//   1. zero perturbation: every cell ends at the unobserved cell's clock,
//      per-domain cycle table and crossing totals, the all-on cell included;
//   2. independence: the all-on cell reproduces every single-observer
//      cell's instrument counters (no observer perturbs another);
//   3. clean protocols: zero auditor and race-detector violations in every
//      cell with an auditor;
//   4. E17: zero span mismatches and >= 95% cycle attribution;
//   5. E22: >= 99% of completed requests fully parented, zero orphaned
//      handoffs, and the E19 crash shape's slowest request names detect /
//      reconnect / replay on its critical path.
//
// Host wall-clock per cell (median of three runs) goes to
// BENCH_OBSERVERS_HOST.json, never compared. With UKVM_TRACE_DIR set, the
// flip-receive shape's trace cell writes a Perfetto trace plus flamegraph
// stacks (tag e17_netsplit) and the crash shape's reqtrace cell its request
// flow view and table (tag e22_recovery).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/reqtrace.h"
#include "src/experiments/table.h"
#include "src/experiments/trace_export.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ukvm::Err;

// --- Cells -------------------------------------------------------------------------

enum ObserverBit : unsigned { kAudit = 1, kTrace = 2, kRace = 4, kReqTrace = 8 };

struct Cell {
  const char* name;
  unsigned observers;
};
constexpr std::array<Cell, 6> kCells = {{{"none", 0},
                                         {"audit", kAudit},
                                         {"trace", kTrace},
                                         {"race", kRace},
                                         {"reqtrace", kReqTrace},
                                         {"all", kAudit | kTrace | kRace | kReqTrace}}};
constexpr size_t kNone = 0, kAuditCell = 1, kTraceCell = 2, kRaceCell = 3, kReqTraceCell = 4,
                 kAllCell = 5;
constexpr int kHostTrials = 3;

ustack::ObserverConfig Observers(unsigned bits) {
  ustack::ObserverConfig config;
  config.audit = (bits & kAudit) != 0;
  config.race_detect = (bits & kRace) != 0;
  config.trace.enabled = (bits & kTrace) != 0;
  config.request_trace.enabled = (bits & kReqTrace) != 0;
  return config;
}

// Everything one cell observed. The first four fields are the machine's own
// state (must match the unobserved cell); the rest are instrument outputs.
struct CellResult {
  uint64_t sim_cycles = 0;
  std::vector<std::pair<ukvm::DomainId, uint64_t>> by_domain;
  uint64_t crossings = 0;
  uint64_t crossing_cycles = 0;

  uint64_t violations = 0;  // auditor, race detector included
  uint64_t hb_edges = 0;    // race detector releases + acquires
  uint64_t accesses = 0;    // race detector shared accesses

  uint64_t events = 0;
  uint64_t mismatches = 0;
  uint64_t dropped = 0;
  uint64_t accounted = 0;
  uint64_t attributed = 0;
  std::vector<std::vector<std::string>> histograms;

  ukvm::ReqTraceLint lint;
  uint64_t requests = 0;
  ukvm::HistogramSnapshot e2e;
  std::string slowest_origin = "-";
  uint64_t slowest_e2e = 0;
  std::array<uint64_t, ukvm::kReqNodeKindCount> slowest_breakdown{};
  std::string report;

  const char* export_tag = nullptr;  // input: write trace files under this tag
  double host_ms = 0;
};

template <typename Stack>
void Harvest(Stack& stack, CellResult& r) {
  hwsim::Machine& machine = stack.machine();
  if (ucheck::Auditor* auditor = stack.auditor()) {
    auditor->Checkpoint("bench-end");
    r.violations = auditor->violation_count();
    if (const ucheck::RaceDetector* race = auditor->race()) {
      const ucheck::RaceDetector::Stats s = race->stats();
      r.hb_edges = s.releases + s.acquires;
      r.accesses = s.shared_accesses;
    }
  }
  r.sim_cycles = machine.Now();
  r.by_domain = machine.accounting().ByDomain();
  r.crossings = machine.ledger().total_count();
  r.crossing_cycles = machine.ledger().total_cycles();

  const ukvm::Tracer& tracer = machine.tracer();
  if (tracer.enabled()) {
    r.events = tracer.events_recorded();
    r.mismatches = tracer.span_mismatches();
    r.dropped = tracer.events_dropped();
    r.accounted = tracer.profiler().total_cycles();
    r.attributed = uharness::AttributedCycles(tracer.profiler());
    tracer.ForEachHistogram([&r](const std::string& name, const ukvm::LogHistogram& h) {
      if (h.count() == 0) {
        return;
      }
      const ukvm::HistogramSnapshot s = h.Snapshot();
      r.histograms.push_back({name, uharness::FmtInt(s.count), uharness::FmtInt(s.p50),
                              uharness::FmtInt(s.p90), uharness::FmtInt(s.p99),
                              uharness::FmtInt(s.max)});
    });
  }

  const ukvm::RequestTrace& rt = machine.reqtrace();
  if (rt.enabled()) {
    r.lint = rt.Lint();
    r.requests = rt.requests_started();
    r.e2e = rt.e2e().Snapshot();
    if (!rt.slowest().empty()) {
      const ukvm::CompletedRequest& slow = rt.slowest().front();
      r.slowest_origin = rt.Name(slow.nodes.front().name);
      r.slowest_e2e = slow.t1 - slow.t0;
      r.slowest_breakdown = slow.breakdown;
    }
    r.report = rt.SlowestReport();
  }

  if (r.export_tag != nullptr) {
    if (tracer.enabled()) {
      uharness::WriteTraceFilesIfRequested(tracer, r.export_tag, hwsim::kCyclesPerUs);
    }
    if (rt.enabled()) {
      uharness::WriteRequestTraceFilesIfRequested(rt, tracer, r.export_tag,
                                                  hwsim::kCyclesPerUs);
    }
  }
}

// --- Shapes ------------------------------------------------------------------------

void UkernelIpc(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::UkernelStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 2000);
  });
  stack.machine().RunUntilIdle();
  Harvest(stack, r);
}

void VmmMixed(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::VmmStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  ustack::VmmStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 80);
  });
  stack.machine().RunUntilIdle();
  Harvest(stack, r);
}

// 64 x 1 KiB datagrams at 20 us spacing into a bound port.
void VmmReceive(ustack::VmmStack::Config config, uint16_t port, CellResult& r) {
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(port, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("bench");
    (void)os.NetBind(*pid, port);
    wire.StartStream(port, 1024, 20 * hwsim::kCyclesPerUs, 64);
    uwork::RunUdpReceive(stack.machine(), os, *pid, port, 64, 1'000'000'000ull);
  });
  stack.machine().RunUntilIdle();
  Harvest(stack, r);
}

void VmmFlipReceive(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::VmmStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  config.rx_mode = ustack::RxMode::kPageFlip;
  VmmReceive(config, 40, r);
}

void VmmBatchedCopyReceive(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::VmmStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  config.rx_mode = ustack::RxMode::kGrantCopy;
  config.io_batch = 8;
  config.persistent_grants = true;
  VmmReceive(config, 41, r);
}

void VmmBlkTraffic(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::VmmStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x5A);
  std::vector<uint8_t> back(front.block_size(), 0);
  for (uint64_t lba = 0; lba < 32; ++lba) {
    (void)front.Write(lba, 1, block);
  }
  for (uint64_t lba = 0; lba < 32; ++lba) {
    (void)front.Read(lba, 1, back);
  }
  stack.machine().RunUntilIdle();
  Harvest(stack, r);
}

// The E19 shape: kill the storage VM with writes on the ring, restart,
// replay the journal. Traced, the replayed requests' DAGs must attribute
// the stall to the recovery phases.
void VmmRecoveryKill(const ustack::ObserverConfig& observers, CellResult& r) {
  ustack::VmmStack::Config config;
  static_cast<ustack::ObserverConfig&>(config) = observers;
  config.parallax_storage = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0);
  for (int i = 0; i < 16; ++i) {
    block.assign(block.size(), static_cast<uint8_t>(i + 1));
    if (i == 8) {
      // Land inside this write's completion wait: it dies on the ring,
      // journals, and replays after the restart.
      stack.machine().ScheduleAfter(30 * hwsim::kCyclesPerUs,
                                    [&stack] { (void)stack.KillStorage(); });
    }
    (void)front.Write(static_cast<uint64_t>(i) % 8, 1, block);
    if (i == 11) {
      stack.machine().RunUntilIdle();
      if (stack.RestartStorage() != Err::kNone) {
        std::printf("FAIL: RestartStorage failed\n");
      }
    }
  }
  stack.machine().RunUntilIdle();
  Harvest(stack, r);
}

struct Shape {
  const char* name;
  void (*run)(const ustack::ObserverConfig&, CellResult&);
  const char* trace_tag = nullptr;     // trace cell exports under this tag
  const char* reqtrace_tag = nullptr;  // reqtrace cell exports under this tag
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"E1 ipc-pingpong (ukernel, 2000 syscalls)", UkernelIpc},
      {"E4 mixed blend (vmm, syscalls+files+udp)", VmmMixed},
      {"E9 flip receive (vmm, 64 pkts page-flip)", VmmFlipReceive, "e17_netsplit"},
      {"E16 batched copy receive (vmm, batch 8)", VmmBatchedCopyReceive},
      {"blk write/read (vmm, 32 blocks each way)", VmmBlkTraffic},
      {"E19 killed backend mid-write (vmm+parallax)", VmmRecoveryKill, nullptr,
       "e22_recovery"},
  };
  return shapes;
}
constexpr size_t kFlipShape = 2;
constexpr size_t kRecoveryShape = 5;

CellResult RunCell(const Shape& shape, size_t cell) {
  std::vector<double> host_ms;
  CellResult first;
  for (int trial = 0; trial < kHostTrials; ++trial) {
    CellResult r;
    if (trial == 0) {
      r.export_tag = cell == kTraceCell ? shape.trace_tag
                     : cell == kReqTraceCell ? shape.reqtrace_tag
                                             : nullptr;
    }
    const auto t0 = std::chrono::steady_clock::now();
    shape.run(Observers(kCells[cell].observers), r);
    host_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
    if (trial == 0) {
      first = std::move(r);
    }
  }
  std::sort(host_ms.begin(), host_ms.end());
  first.host_ms = host_ms[host_ms.size() / 2];
  return first;
}

bool SameMachineState(const CellResult& a, const CellResult& b) {
  return a.sim_cycles == b.sim_cycles && a.by_domain == b.by_domain &&
         a.crossings == b.crossings && a.crossing_cycles == b.crossing_cycles;
}

std::string Delta(const CellResult& cell, const CellResult& none) {
  return std::to_string(static_cast<int64_t>(cell.sim_cycles) -
                        static_cast<int64_t>(none.sim_cycles));
}

double Coverage(const CellResult& r) {
  return r.accounted > 0 ? static_cast<double>(r.attributed) / r.accounted : 0;
}

}  // namespace

int main() {
  uharness::PrintHeading("OBSERVERS",
                         "observer matrix: auditor, race detector, tracer, request tracer");

  const std::vector<Shape>& shapes = Shapes();
  std::vector<std::array<CellResult, kCells.size()>> results(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    CellResult warm_up;  // allocator, page cache
    shapes[s].run(Observers(kCells[kNone].observers), warm_up);
    for (size_t c = 0; c < kCells.size(); ++c) {
      results[s][c] = RunCell(shapes[s], c);
    }
  }

  uharness::Table sim("sim cycles per cell (delta vs none)",
                      {"workload", "none", "audit", "trace", "race", "reqtrace", "all"});
  uharness::Table host("host ms per cell (median of 3)",
                       {"workload", "none", "audit", "trace", "race", "reqtrace", "all"});
  host.MarkHostTime();
  uharness::Table check("auditor and race detector",
                        {"workload", "violations (audit)", "violations (race)",
                         "violations (all)", "hb edges", "accesses"});
  uharness::Table trace("tracer", {"workload", "events", "span mismatches", "coverage"});
  uharness::Table req("request tracer",
                      {"workload", "requests", "completed", "abandoned", "parented", "orphans"});
  uharness::Table tail("tail-latency attribution (slowest retained request)",
                       {"workload", "e2e count", "e2e p50", "e2e p99", "slowest origin",
                        "slowest e2e", "dominant bucket", "bucket cycles"});

  bool unperturbed = true;
  bool independent = true;
  bool clean = true;
  bool spans_ok = true;
  bool attribution_ok = true;
  bool parented_ok = true;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto& row = results[s];
    const CellResult& none = row[kNone];
    const CellResult& all = row[kAllCell];
    std::vector<std::string> sim_row = {shapes[s].name, uharness::FmtInt(none.sim_cycles)};
    std::vector<std::string> host_row = {shapes[s].name};
    for (size_t c = 0; c < kCells.size(); ++c) {
      unperturbed = unperturbed && SameMachineState(row[c], none);
      if (c != kNone) {
        sim_row.push_back(Delta(row[c], none));
      }
      host_row.push_back(uharness::FmtDouble(row[c].host_ms, 1));
    }
    sim.AddRow(sim_row);
    host.AddRow(host_row);

    const CellResult& audit = row[kAuditCell];
    const CellResult& race = row[kRaceCell];
    const CellResult& traced = row[kTraceCell];
    const CellResult& rt = row[kReqTraceCell];
    independent = independent && all.violations == audit.violations &&
                  all.hb_edges == race.hb_edges && all.accesses == race.accesses &&
                  all.events == traced.events && all.mismatches == traced.mismatches &&
                  all.attributed == traced.attributed && all.requests == rt.requests &&
                  all.lint.completed == rt.lint.completed &&
                  all.lint.fully_parented == rt.lint.fully_parented &&
                  all.report == rt.report;
    clean = clean && audit.violations == 0 && race.violations == 0 && all.violations == 0;
    spans_ok = spans_ok && traced.mismatches == 0;
    attribution_ok = attribution_ok && Coverage(traced) >= 0.95;
    parented_ok = parented_ok && rt.lint.completed > 0 && rt.lint.orphaned_handoffs == 0 &&
                  rt.lint.parented_fraction() >= 0.99;

    check.AddRow({shapes[s].name, uharness::FmtInt(audit.violations),
                  uharness::FmtInt(race.violations), uharness::FmtInt(all.violations),
                  uharness::FmtInt(race.hb_edges), uharness::FmtInt(race.accesses)});
    trace.AddRow({shapes[s].name, uharness::FmtInt(traced.events),
                  uharness::FmtInt(traced.mismatches), uharness::FmtPercent(Coverage(traced))});
    req.AddRow({shapes[s].name, uharness::FmtInt(rt.requests),
                uharness::FmtInt(rt.lint.completed), uharness::FmtInt(rt.lint.abandoned),
                uharness::FmtPercent(rt.lint.parented_fraction()),
                uharness::FmtInt(rt.lint.orphaned_handoffs)});
    // Dominant critical-path bucket of the slowest retained request.
    size_t dominant = static_cast<size_t>(ukvm::ReqNodeKind::kQueue);
    for (size_t k = 0; k < ukvm::kReqNodeKindCount; ++k) {
      if (rt.slowest_breakdown[k] > rt.slowest_breakdown[dominant]) {
        dominant = k;
      }
    }
    tail.AddRow({shapes[s].name, uharness::FmtInt(rt.e2e.count), uharness::FmtCycles(rt.e2e.p50),
                 uharness::FmtCycles(rt.e2e.p99), rt.slowest_origin,
                 uharness::FmtCycles(rt.slowest_e2e),
                 ukvm::ReqNodeKindName(static_cast<ukvm::ReqNodeKind>(dominant)),
                 uharness::FmtCycles(rt.slowest_breakdown[dominant])});
  }
  sim.Print();
  host.Print();
  check.Print();
  trace.Print();

  const CellResult& flip = results[kFlipShape][kTraceCell];
  uharness::Table hist("latency histograms (cycles), netsplit flip receive",
                       {"histogram", "count", "p50", "p90", "p99", "max"});
  for (const std::vector<std::string>& h : flip.histograms) {
    hist.AddRow(h);
  }
  hist.Print();
  uharness::Table prof("cycle attribution (profiler), netsplit flip receive",
                       {"accounted cycles", "attributed", "coverage", "events", "dropped"});
  prof.AddRow({uharness::FmtInt(flip.accounted), uharness::FmtInt(flip.attributed),
               uharness::FmtPercent(Coverage(flip)), uharness::FmtInt(flip.events),
               uharness::FmtInt(flip.dropped)});
  prof.Print();

  req.Print();
  tail.Print();
  const CellResult& crash = results[kRecoveryShape][kReqTraceCell];
  uharness::Table rec("E19 shape: slowest request critical-path breakdown", {"bucket", "cycles"});
  for (size_t k = 0; k < ukvm::kReqNodeKindCount; ++k) {
    if (crash.slowest_breakdown[k] != 0) {
      rec.AddRow({ukvm::ReqNodeKindName(static_cast<ukvm::ReqNodeKind>(k)),
                  uharness::FmtCycles(crash.slowest_breakdown[k])});
    }
  }
  rec.Print();
  const bool recovery_ok =
      crash.report.find("recovery.detect") != std::string::npos &&
      crash.report.find("recovery.reconnect") != std::string::npos &&
      crash.report.find("recovery.replay") != std::string::npos &&
      crash.slowest_breakdown[static_cast<size_t>(ukvm::ReqNodeKind::kRecovery)] > 0;

  const auto verdict = [](bool ok) { return ok ? "holds" : "VIOLATED"; };
  std::printf(
      "\nInvariant: observation is invisible in simulated time (every cell ends at\n"
      "the unobserved cell's clock, per-domain cycles and crossing totals) — %s.\n"
      "The all-on cell reproduces each observer's counters — %s. Zero auditor and\n"
      "race violations — %s. Span discipline — %s. Cycle attribution >= 95%% — %s.\n"
      "Requests >= 99%% fully parented, zero orphans — %s. The E19 crash shape's\n"
      "slowest request names detect/reconnect/replay — %s.\n",
      verdict(unperturbed), verdict(independent), verdict(clean), verdict(spans_ok),
      verdict(attribution_ok), verdict(parented_ok), verdict(recovery_ok));
  uharness::WriteJsonIfRequested("OBSERVERS");
  return unperturbed && independent && clean && spans_ok && attribution_ok && parented_ok &&
                 recovery_ok
             ? 0
             : 1;
}
