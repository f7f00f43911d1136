// E17 observability tests: histogram bucket math, flight-recorder ring
// semantics, span discipline, profiler attribution, multi-sink ledger
// fan-out, and — end to end — deterministic byte-identical exports from
// all three stacks with the auditor running alongside the tracer.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/crossings.h"
#include "src/core/histogram.h"
#include "src/core/trace.h"
#include "src/experiments/trace_export.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "src/workloads/netio.h"
#include "src/workloads/oswork.h"

namespace {

using ukvm::DomainId;
using ukvm::LogHistogram;
using ukvm::TraceConfig;
using ukvm::TraceEvent;
using ukvm::TraceEventType;
using ukvm::Tracer;

// --- Histogram bucket math -----------------------------------------------------

TEST(Histogram, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 2 * LogHistogram::kSubBucketCount; ++v) {
    EXPECT_EQ(LogHistogram::BucketIndex(v), v);
    EXPECT_EQ(LogHistogram::BucketUpperBound(LogHistogram::BucketIndex(v)), v);
  }
}

TEST(Histogram, BucketIndexIsMonotonicAndBoundsContainValues) {
  uint32_t prev = 0;
  for (uint64_t v = 1; v < (1ull << 40); v = v * 3 / 2 + 1) {
    const uint32_t idx = LogHistogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
    // The bucket's inclusive upper bound must contain the value, and the
    // next bucket must start strictly above it.
    EXPECT_GE(LogHistogram::BucketUpperBound(idx), v);
    if (idx > 0) {
      EXPECT_LT(LogHistogram::BucketUpperBound(idx - 1), v);
    }
  }
  EXPECT_LT(LogHistogram::BucketIndex(~0ull), LogHistogram::kBucketCount);
}

TEST(Histogram, BoundedRelativeError) {
  // HDR guarantee: sub-bucketing keeps the bucket width under 1/16 of the
  // value, so the reported upper bound is within ~6.25% of the true value.
  for (uint64_t v = 100; v < (1ull << 50); v *= 7) {
    const uint64_t ub = LogHistogram::BucketUpperBound(LogHistogram::BucketIndex(v));
    EXPECT_LE(ub - v, v / LogHistogram::kSubBucketCount) << "v=" << v;
  }
}

TEST(Histogram, PercentilesAndSnapshot) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);

  // Percentiles are bucket upper bounds: at most ~6.25% above the exact
  // rank value, never below it.
  const uint64_t p50 = h.ValueAtPermille(500);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / LogHistogram::kSubBucketCount);
  const uint64_t p99 = h.ValueAtPermille(990);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / LogHistogram::kSubBucketCount);
  // p1000 is clamped to the exact observed max.
  EXPECT_EQ(h.ValueAtPermille(1000), 1000u);

  const ukvm::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.p50, p50);
  EXPECT_EQ(s.p99, p99);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Snapshot().p50, 0u);
}

TEST(Histogram, EmptyHistogramSnapshotIsZero) {
  const LogHistogram h;
  const ukvm::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0u);
}

// --- Flight recorder -----------------------------------------------------------

Tracer MakeEnabledTracer(size_t ring_capacity) {
  Tracer t;
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = ring_capacity;
  t.Enable(config);
  return t;
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  const uint32_t name = t.InternName("x");
  EXPECT_EQ(t.BeginSpan(name, DomainId{1}), 0u);
  t.Instant(name, DomainId{1});
  EXPECT_EQ(t.events_recorded(), 0u);
  EXPECT_EQ(t.open_spans(), 0u);
}

TEST(Tracer, RingWrapKeepsNewestWindowOldestFirst) {
  Tracer t = MakeEnabledTracer(8);
  const uint32_t name = t.InternName("tick");
  for (uint64_t i = 0; i < 20; ++i) {
    t.Instant(name, DomainId{1}, /*a=*/i);
  }
  EXPECT_EQ(t.events_recorded(), 20u);
  EXPECT_EQ(t.events_dropped(), 12u);
  EXPECT_EQ(t.ring_capacity(), 8u);

  std::vector<uint64_t> seqs;
  t.ForEachEvent([&](const TraceEvent& e) {
    seqs.push_back(e.seq);
    EXPECT_EQ(e.a, e.seq);  // payloads travelled with their events
  });
  ASSERT_EQ(seqs.size(), 8u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], 12 + i);  // the newest 8, oldest first
  }
}

TEST(Tracer, SpansRecordCompletedIntervals) {
  Tracer t = MakeEnabledTracer(16);
  uint64_t now = 100;
  t.SetTimeSource([&now] { return now; });
  const uint32_t name = t.InternName("op");

  const uint64_t token = t.BeginSpan(name, DomainId{3});
  EXPECT_NE(token, 0u);
  EXPECT_EQ(t.open_spans(), 1u);
  EXPECT_EQ(t.events_recorded(), 0u);  // nothing emitted until the span closes
  now = 175;
  t.EndSpan(token);
  EXPECT_EQ(t.open_spans(), 0u);

  ASSERT_EQ(t.events_recorded(), 1u);
  t.ForEachEvent([](const TraceEvent& e) {
    EXPECT_EQ(e.type, TraceEventType::kSpan);
    EXPECT_EQ(e.time, 100u);
    EXPECT_EQ(e.dur, 75u);
    EXPECT_EQ(e.domain, DomainId{3});
  });
  EXPECT_EQ(t.span_mismatches(), 0u);
}

TEST(Tracer, OutOfOrderSpanCloseCountsMismatch) {
  Tracer t = MakeEnabledTracer(16);
  const uint32_t name = t.InternName("op");
  const uint64_t outer = t.BeginSpan(name, DomainId{1});
  const uint64_t inner = t.BeginSpan(name, DomainId{1});
  (void)inner;
  t.EndSpan(outer);  // closes outer with inner still open
  EXPECT_EQ(t.span_mismatches(), 1u);
  EXPECT_EQ(t.open_spans(), 0u);  // the orphaned inner open was discarded
}

TEST(Tracer, InternedNamesSurviveReEnable) {
  Tracer t = MakeEnabledTracer(8);
  const uint32_t name = t.InternName("persistent");
  t.Instant(name, DomainId{1});
  t.Disable();
  t.Enable(TraceConfig{true, 8});
  EXPECT_EQ(t.events_recorded(), 0u);  // Enable clears recorded events...
  EXPECT_EQ(t.Name(name), "persistent");   // ...but interned names survive
  EXPECT_EQ(t.InternName("persistent"), name);
}

// --- Profiler ------------------------------------------------------------------

TEST(Profiler, AttributesChargesToActivePath) {
  ukvm::CycleProfiler prof;
  const uint32_t outer = prof.InternFrame("outer");
  const uint32_t inner = prof.InternFrame("inner");

  prof.OnCharge(DomainId{1}, 10);  // no frames: unattributed (empty path)
  prof.Push(outer);
  prof.OnCharge(DomainId{1}, 20);
  prof.Push(inner);
  prof.OnCharge(DomainId{1}, 30);
  prof.OnCharge(DomainId{2}, 5);  // same path, different domain
  prof.Pop();
  prof.OnCharge(DomainId{1}, 40);
  prof.Pop();

  EXPECT_EQ(prof.total_cycles(), 105u);

  struct Row {
    uint32_t domain;
    std::vector<uint32_t> path;
    uint64_t cycles;
  };
  std::vector<Row> rows;
  prof.ForEachAttribution([&](DomainId d, const std::vector<uint32_t>& path, uint64_t cycles) {
    rows.push_back({d.value(), path, cycles});
  });
  ASSERT_EQ(rows.size(), 4u);
  // Deterministic order: sorted by domain, then trie node creation order.
  EXPECT_EQ(rows[0].domain, 1u);
  EXPECT_TRUE(rows[0].path.empty());
  EXPECT_EQ(rows[0].cycles, 10u);
  EXPECT_EQ(rows[1].path, (std::vector<uint32_t>{outer}));
  EXPECT_EQ(rows[1].cycles, 60u);  // 20 before inner + 40 after
  EXPECT_EQ(rows[2].path, (std::vector<uint32_t>{outer, inner}));
  EXPECT_EQ(rows[2].cycles, 30u);
  EXPECT_EQ(rows[3].domain, 2u);
  EXPECT_EQ(rows[3].path, (std::vector<uint32_t>{outer, inner}));
  EXPECT_EQ(rows[3].cycles, 5u);
}

// --- Ledger fan-out ------------------------------------------------------------

TEST(Ledger, MultipleTraceSinksAllObserveEvents) {
  ukvm::CrossingLedger ledger;
  const uint32_t mech = ledger.InternMechanism("test.xing", ukvm::CrossingKind::kSyncCall);

  int a_count = 0;
  int b_count = 0;
  const uint32_t a = ledger.AddTraceSink([&](const ukvm::CrossingEvent&) { ++a_count; });
  const uint32_t b = ledger.AddTraceSink([&](const ukvm::CrossingEvent&) { ++b_count; });
  EXPECT_TRUE(ledger.tracing());

  ledger.Record(mech, DomainId{1}, DomainId{2}, 100, 0);
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 1);

  ledger.RemoveTraceSink(a);
  ledger.Record(mech, DomainId{1}, DomainId{2}, 100, 0);
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 2);

  ledger.RemoveTraceSink(b);
  EXPECT_FALSE(ledger.tracing());
}

// --- End to end: the three stacks ----------------------------------------------

// Minimal structural well-formedness: balanced braces/brackets outside
// string literals, and an even number of unescaped quotes.
bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) {
        return false;
      }
    }
  }
  return depth == 0 && !in_string;
}

struct ExportPair {
  std::string json;
  std::string stacks;
  uint64_t sim_cycles = 0;
};

ExportPair RunTracedVmm() {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.rx_mode = ustack::RxMode::kPageFlip;
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    (void)os.NetBind(*pid, 40);
    wire.StartStream(40, 512, 20 * hwsim::kCyclesPerUs, 16);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 16, 1'000'000'000ull);
  });
  stack.machine().RunUntilIdle();
  ExportPair out;
  out.json = uharness::ChromeTraceJson(stack.machine().tracer(), hwsim::kCyclesPerUs);
  out.stacks = uharness::CollapsedStacks(stack.machine().tracer());
  out.sim_cycles = stack.machine().Now();
  return out;
}

ExportPair RunTracedUkernel() {
  ustack::UkernelStack::Config config;
  config.trace.enabled = true;
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 20);
  });
  stack.machine().RunUntilIdle();
  ExportPair out;
  out.json = uharness::ChromeTraceJson(stack.machine().tracer(), hwsim::kCyclesPerUs);
  out.stacks = uharness::CollapsedStacks(stack.machine().tracer());
  out.sim_cycles = stack.machine().Now();
  return out;
}

ExportPair RunTracedNative() {
  ustack::NativeStack::Config config;
  config.trace.enabled = true;
  ustack::NativeStack stack(config);
  auto pid = stack.os().Spawn("app");
  uwork::RunMixedWorkload(stack.machine(), stack.os(), *pid, 20);
  stack.machine().RunUntilIdle();
  ExportPair out;
  out.json = uharness::ChromeTraceJson(stack.machine().tracer(), hwsim::kCyclesPerUs);
  out.stacks = uharness::CollapsedStacks(stack.machine().tracer());
  out.sim_cycles = stack.machine().Now();
  return out;
}

TEST(TraceE2E, ExportsAreDeterministicAcrossRuns) {
  // Same config, two fresh stacks: byte-identical dumps, on every stack.
  const ExportPair vmm1 = RunTracedVmm();
  const ExportPair vmm2 = RunTracedVmm();
  EXPECT_EQ(vmm1.json, vmm2.json);
  EXPECT_EQ(vmm1.stacks, vmm2.stacks);
  EXPECT_EQ(vmm1.sim_cycles, vmm2.sim_cycles);

  const ExportPair uk1 = RunTracedUkernel();
  const ExportPair uk2 = RunTracedUkernel();
  EXPECT_EQ(uk1.json, uk2.json);
  EXPECT_EQ(uk1.stacks, uk2.stacks);

  const ExportPair nat1 = RunTracedNative();
  const ExportPair nat2 = RunTracedNative();
  EXPECT_EQ(nat1.json, nat2.json);
  EXPECT_EQ(nat1.stacks, nat2.stacks);
}

TEST(TraceE2E, TracingDoesNotPerturbSimulatedTime) {
  auto run = [](bool trace) {
    ustack::VmmStack::Config config;
    config.trace.enabled = trace;
    ustack::VmmStack stack(config);
    auto& os = stack.guest_os(0);
    (void)stack.RunAsApp(0, [&] {
      auto pid = os.Spawn("app");
      uwork::RunMixedWorkload(stack.machine(), os, *pid, 40);
    });
    stack.machine().RunUntilIdle();
    return stack.machine().Now();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TraceE2E, ChromeJsonIsWellFormedWithMultipleDomains) {
  const ExportPair vmm = RunTracedVmm();
  ASSERT_FALSE(vmm.json.empty());
  EXPECT_TRUE(JsonBalanced(vmm.json));
  EXPECT_NE(vmm.json.find("\"traceEvents\""), std::string::npos);

  // The netsplit receive path spans at least three protection domains:
  // the hypervisor-side domains, the driver VM, and the guest.
  std::set<std::string> pids;
  size_t pos = 0;
  while ((pos = vmm.json.find("\"pid\":", pos)) != std::string::npos) {
    pos += 6;
    const size_t end = vmm.json.find_first_of(",}", pos);
    pids.insert(vmm.json.substr(pos, end - pos));
  }
  EXPECT_GE(pids.size(), 3u) << vmm.json.substr(0, 400);

  // Registered display names made it into the process metadata.
  EXPECT_NE(vmm.json.find("process_name"), std::string::npos);
  EXPECT_NE(vmm.json.find("Dom0"), std::string::npos);
}

TEST(TraceE2E, ProfilerAttributesNearlyAllCycles) {
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  config.rx_mode = ustack::RxMode::kPageFlip;
  ustack::VmmStack stack(config);
  uwork::WireHost wire(stack.machine(), stack.nic());
  stack.RouteWirePort(40, 0);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    (void)os.NetBind(*pid, 40);
    wire.StartStream(40, 512, 20 * hwsim::kCyclesPerUs, 16);
    uwork::RunUdpReceive(stack.machine(), os, *pid, 40, 16, 1'000'000'000ull);
  });
  stack.machine().RunUntilIdle();

  const ukvm::CycleProfiler& prof = stack.machine().tracer().profiler();
  const uint64_t total = prof.total_cycles();
  const uint64_t attributed = uharness::AttributedCycles(prof);
  ASSERT_GT(total, 0u);
  EXPECT_GE(attributed * 100, total * 95)
      << "attributed " << attributed << " of " << total << " cycles";

  // Collapsed stacks account for every charged cycle, attributed or not.
  uint64_t stack_sum = 0;
  prof.ForEachAttribution(
      [&](DomainId, const std::vector<uint32_t>&, uint64_t cycles) { stack_sum += cycles; });
  EXPECT_EQ(stack_sum, total);
}

TEST(TraceE2E, AuditorAndTracerRunTogetherCleanly) {
  ustack::VmmStack::Config config;
  config.audit = true;
  config.trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    uwork::RunMixedWorkload(stack.machine(), os, *pid, 40);
  });
  stack.machine().RunUntilIdle();
  ASSERT_NE(stack.auditor(), nullptr);
  stack.auditor()->Checkpoint("e17");
  EXPECT_EQ(stack.auditor()->violation_count(), 0u);

  // Both ledger sinks were live the whole run: the auditor linted every
  // crossing while the tracer recorded them.
  EXPECT_TRUE(stack.machine().ledger().tracing());
  EXPECT_GT(stack.machine().tracer().events_recorded(), 0u);
}

TEST(TraceE2E, IrqAndEventChannelInstantsReachFlightRecorder) {
  // The interrupt controller and the event-channel table record straight
  // into the machine-owned tracer: a block write raises the disk IRQ
  // (assert + deliver) and kicks the frontend's event channel.
  ustack::VmmStack::Config config;
  config.trace.enabled = true;
  ustack::VmmStack stack(config);
  auto& front = *stack.guest(0).blkfront;
  std::vector<uint8_t> block(front.block_size(), 0x3C);
  ASSERT_EQ(front.Write(1, 1, block), ukvm::Err::kNone);
  stack.machine().RunUntilIdle();

  const Tracer& tracer = stack.machine().tracer();
  size_t asserts = 0, delivers = 0, sends = 0;
  tracer.ForEachEvent([&](const TraceEvent& event) {
    if (event.type != TraceEventType::kInstant) {
      return;
    }
    const std::string& name = tracer.Name(event.name);
    if (name == "irq.assert" || name == "irq.deliver") {
      EXPECT_EQ(event.domain, ukvm::kHardwareDomain);
      EXPECT_EQ(event.a, stack.disk().line().value());
      ++(name == "irq.assert" ? asserts : delivers);
    } else if (name == "evtchn.send") {
      ++sends;
    }
  });
  EXPECT_GE(asserts, 1u);
  EXPECT_GE(delivers, 1u);
  EXPECT_GE(sends, 2u);  // request kick to the backend, response kick back
}

TEST(TraceE2E, UkernelHistogramsCaptureCrossingLatency) {
  const ExportPair uk = RunTracedUkernel();
  (void)uk;
  ustack::UkernelStack::Config config;
  config.trace.enabled = true;
  ustack::UkernelStack stack(config);
  auto& os = stack.guest_os(0);
  (void)stack.RunAsApp(0, [&] {
    auto pid = os.Spawn("app");
    uwork::RunNullSyscalls(stack.machine(), os, *pid, 50);
  });
  bool saw_ipc_hist = false;
  stack.machine().tracer().ForEachHistogram(
      [&](const std::string& name, const LogHistogram& h) {
        // Every syscall crossed the kernel via IPC: the per-mechanism
        // histogram fed from the ledger must have seen them, with a
        // non-zero median (IPC calls cost real cycles; some mechanisms
        // like virq latches legitimately record zero-cycle crossings).
        if (name == "xing.l4.ipc.call") {
          saw_ipc_hist = true;
          EXPECT_GE(h.count(), 50u);
          EXPECT_GT(h.Snapshot().p50, 0u);
        }
      });
  EXPECT_TRUE(saw_ipc_hist);
}

}  // namespace
