// The repository benchmark.
//
//   ukbench --workload <lifecycle|syscall_ctl|split_io|observed> --seed <n>
//           --seconds <s> --trace <0|1> [--span-dir <dir>]
//   ukbench selftest
//
// Every workload sends one seeded request stream to the native, ukernel and
// vmm stacks (default Config, default build) one after another: a closed
// loop with one client, one process and one thread. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the same workload and seed traced, then
// untraced, and prints the per-layer metrics. The last line of standard
// output is one JSON object; the exit code is non-zero when any request or
// check failed. See README.md beside this file.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ukbench/runner.h"
#include "ukbench/selftest.h"

namespace ukbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t n = 0;
  std::string note;
};

// Per-workload stream sizes: warm-up requests, then the deterministic
// prefix over which simulated cycles and counts are taken. Prefixes span
// (nearly) whole cycles of the generator's bags, so per-request means move
// only slightly with the seed; split_io's spans one whole sweep of the
// live-file count.
struct Sizing {
  uint64_t warmup;
  uint64_t prefix;
};

Sizing SizingFor(Workload w) {
  switch (w) {
    case Workload::kLifecycle:
      return {0, 16};  // programs, each run on all three stacks
    case Workload::kSyscallCtl:
      return {64, 57 * 20 - 1};
    case Workload::kSplitIo:
    case Workload::kObserved:
      return {kMixBlock, kMixBlock * kLivePeriod};
  }
  return {0, 0};
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

// The highest percentile with at least ten samples beyond it (p99 from
// n = 1000 on); the median when there are too few samples for that.
double TailQuantile(size_t n) {
  if (n <= 20) {
    return 0.5;
  }
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string PercentileNote(double q, size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f of n=%zu", q * 100.0, n);
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double PerOp(uint64_t total, uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(total) / static_cast<double>(ops);
}

// Host figures of one stack: throughput and p50 over its kept windows, the
// tail over every window, so a stall the kept windows leave out still shows
// there (unbounded, as README.md explains).
struct HostSummary {
  double ops_per_s = 0;
  double p50_us = 0;
  uint64_t requests = 0;  // in the kept windows
  size_t kept = 0;        // windows
  size_t windows = 0;
  double tail_us = 0;
  double tail_q = 0.5;
  uint64_t all_requests = 0;  // in every window
};

HostSummary Summarize(const std::vector<Window>& windows, const std::vector<size_t>& keep) {
  HostSummary h;
  uint64_t ns = 0;
  LatencyHistogram latency;
  for (size_t i : keep) {
    h.requests += windows[i].requests;
    ns += windows[i].ns;
    latency.Merge(windows[i].latency);
  }
  h.kept = keep.size();
  h.windows = windows.size();
  h.ops_per_s = ns == 0 ? 0 : static_cast<double>(h.requests) / (static_cast<double>(ns) / 1e9);
  h.p50_us = latency.QuantileUs(0.5);
  LatencyHistogram all;
  for (const Window& w : windows) {
    all.Merge(w.latency);
  }
  h.all_requests = all.count();
  h.tail_q = TailQuantile(h.all_requests);
  h.tail_us = all.QuantileUs(h.tail_q);
  return h;
}

// The windows whose host figures are reported: the quarter of a stack's
// windows with the highest throughput (at least one). The shared host
// switches, for seconds at a time, between full speed and little more than
// half of it (a neighbour on the same physical core), and in a noisy
// stretch most windows are slow. Every request mix repeats within a
// window, so the fastest quarter is what the code does when the host lets
// it run; a uniform slowdown of the code moves every window alike. What
// this cannot see is a stall that hits fewer than three quarters of the
// windows.
std::vector<size_t> KeptWindows(const std::vector<Window>& windows) {
  std::vector<size_t> keep(windows.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    keep[i] = i;
  }
  // a is faster than b: a.requests / a.ns > b.requests / b.ns.
  std::stable_sort(keep.begin(), keep.end(), [&](size_t a, size_t b) {
    return static_cast<double>(windows[a].requests) * static_cast<double>(windows[b].ns) >
           static_cast<double>(windows[b].requests) * static_cast<double>(windows[a].ns);
  });
  keep.resize((keep.size() + 3) / 4);
  return keep;
}

std::array<HostSummary, 3> SummarizeHost(const PassResult& pass) {
  std::array<HostSummary, 3> out;
  for (size_t s = 0; s < 3; ++s) {
    const std::vector<Window>& windows = pass.stacks[s].host.windows;
    out[s] = Summarize(windows, KeptWindows(windows));
  }
  return out;
}

// Where each stack's host time goes, by request kind, over the kept windows:
// the checkable basis of split_io's mix (README.md).
void PrintKindShares(const PassResult& pass) {
  std::array<std::array<uint64_t, kKindCount>, 3> ns{};
  std::array<std::array<uint64_t, kKindCount>, 3> n{};
  std::array<uint64_t, 3> total{};
  for (size_t s = 0; s < 3; ++s) {
    for (size_t i : KeptWindows(pass.stacks[s].host.windows)) {
      const Window& w = pass.stacks[s].host.windows[i];
      for (size_t k = 0; k < kKindCount; ++k) {
        ns[s][k] += w.kind_ns[k];
        n[s][k] += w.kind_requests[k];
        total[s] += w.kind_ns[k];
      }
    }
  }
  std::printf("# host time by request kind, kept windows (share of the stack's time, mean us)\n");
  for (size_t k = 0; k < kKindCount; ++k) {
    if (n[0][k] + n[1][k] + n[2][k] == 0) {
      continue;
    }
    std::printf("#   %-8s", KindName(static_cast<Kind>(k)));
    for (size_t s = 0; s < 3; ++s) {
      std::printf("  %s %5.1f%% %10.2f", StackName(kAllStacks[s]),
                  100.0 * PerOp(ns[s][k], total[s]), PerOp(ns[s][k], n[s][k]) / 1e3);
    }
    std::printf("\n");
  }
}

void AddLatency(std::vector<Metric>& out, const std::string& prefix, const std::string& stack,
                double p50, double tail, double q, uint64_t n) {
  out.push_back({prefix + "_p50." + stack, p50, "us", n, ""});
  out.push_back({prefix + "_tail." + stack, tail, "us", n, PercentileNote(q, n)});
}

// `out` gets the metrics BENCHMARK.json bounds; `shown` gets op_us_tail.<s>,
// which is printed but not bounded (README.md gives the measured spreads).
void EndToEnd(const PassResult& pass, double setup_s, size_t setup_reps, uint64_t attempted,
              uint64_t failed, std::vector<Metric>& out, std::vector<Metric>& shown) {
  out.push_back({"setup_s", setup_s, "s", setup_reps, "median of the fastest quarter"});
  const std::array<HostSummary, 3> host = SummarizeHost(pass);
  for (size_t s = 0; s < 3; ++s) {
    const std::string name = StackName(kAllStacks[s]);
    const StackResult& r = pass.stacks[s];
    const HostSummary& h = host[s];
    out.push_back({"ops_per_s." + name, h.ops_per_s, "req/s", h.requests,
                   std::to_string(h.kept) + " of " + std::to_string(h.windows) +
                       " windows (fastest quarter), per CPU second"});
    out.push_back({"op_us_p50." + name, h.p50_us, "us", h.requests, ""});
    shown.push_back({"op_us_tail." + name, h.tail_us, "us", h.all_requests,
                     PercentileNote(h.tail_q, h.all_requests) + ", every window"});
    out.push_back({"sim_cycles_per_op." + name, PerOp(r.counts.busy_cycles, r.counts.requests),
                   "cycles", r.counts.requests, "busy (non-idle) simulated cycles"});
  }
  out.push_back({"peak_rss_mib", PeakRssMib(), "MiB", 1, ""});
  const double fail = PerOp(failed, attempted);
  out.push_back({"ok_frac", 1.0 - fail, "fraction", attempted, "1 - fail_frac"});
}

void PerLayer(const PassResult& plain, const PassResult& traced, std::vector<Metric>& out) {
  const int reps = 5;
  // Standalone construction costs: what lazy backing would cut.
  for (StackKind kind : kAllStacks) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const uint64_t t0 = NowNs();
      { hwsim::Machine machine(hwsim::MakeX86Platform(), MemoryBytes(kind)); }
      ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    out.push_back({std::string("hw.machine_ctor_ms.") + StackName(kind), Median(ms), "ms",
                   ms.size(), "construct + destroy"});
  }
  {
    std::vector<double> ms;
    hwsim::Machine machine(hwsim::MakeX86Platform(), 1u << 20);
    for (int i = 0; i < reps; ++i) {
      const uint64_t t0 = NowNs();
      { hwsim::Disk disk(machine, ukvm::IrqLine(6), hwsim::Disk::Config{}); }
      ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    out.push_back({"hw.disk_ctor_ms", Median(ms), "ms", ms.size(), "construct + destroy"});
  }

  const std::array<HostSummary, 3> plain_host = SummarizeHost(plain);
  const std::array<HostSummary, 3> traced_host = SummarizeHost(traced);
  for (size_t s = 0; s < 3; ++s) {
    const std::string st = StackName(kAllStacks[s]);
    const StackResult& r = traced.stacks[s];
    const Counts& c = r.counts;
    const HostStats& h = r.host;
    std::vector<double> boots = plain.stacks[s].host.boot_ms;
    boots.insert(boots.end(), h.boot_ms.begin(), h.boot_ms.end());
    std::vector<double> downs = plain.stacks[s].host.teardown_ms;
    downs.insert(downs.end(), h.teardown_ms.begin(), h.teardown_ms.end());
    std::vector<double> checks = plain.stacks[s].host.checkpoint_ms;
    checks.insert(checks.end(), h.checkpoint_ms.begin(), h.checkpoint_ms.end());
    out.push_back({"stacks.boot_ms." + st, Median(boots), "ms", boots.size(), ""});
    out.push_back({"stacks.teardown_ms." + st, Median(downs), "ms", downs.size(), ""});
    out.push_back({"check.checkpoint_ms." + st, Median(checks), "ms", checks.size(), ""});
    out.push_back({"hw.frames_used." + st, static_cast<double>(c.frames_used), "frames", 1, ""});
    const uint64_t n = c.requests;
    out.push_back({"hw.charges_per_op." + st, PerOp(c.charges, n), "count", n, ""});
    out.push_back({"host.allocs_per_op." + st, PerOp(c.allocs, n), "count", n, ""});
    out.push_back({"core.ledger_records_per_op." + st, PerOp(c.ledger_records, n), "count", n, ""});
    out.push_back({"core.ipc_like_per_op." + st, PerOp(c.ipc_like, n), "count", n, ""});
    out.push_back({"core.bytes_moved_per_op." + st, PerOp(c.bytes_moved, n), "B", n, ""});
    if (kAllStacks[s] == StackKind::kUkernel) {
      out.push_back({"ukernel.ipc_calls_per_op", PerOp(c.uk_ipc_calls, n), "count", n, ""});
      out.push_back({"ukernel.string_bytes_per_op", PerOp(c.uk_string_bytes, n), "B", n, ""});
    }
    if (kAllStacks[s] == StackKind::kVmm) {
      out.push_back({"vmm.hypercalls_per_op", PerOp(c.hypercalls, n), "count", n, ""});
      out.push_back({"vmm.evtchn_sends_per_op", PerOp(c.evtchn_sends, n), "count", n, ""});
      out.push_back({"vmm.grant_ops_per_op", PerOp(c.grant_ops, n), "count", n, ""});
      out.push_back({"vmm.page_flips_per_op", PerOp(c.page_flips, n), "count", n, ""});
    }
    // Layers that exist on this stack, named without the stack suffix when
    // only one stack has them.
    std::vector<Layer> layers = {kApp, kOs};
    if (kAllStacks[s] == StackKind::kUkernel) {
      layers.push_back(kUkernelLayer);
    }
    if (kAllStacks[s] == StackKind::kVmm) {
      layers.push_back(kVmmLayer);
    }
    if (kAllStacks[s] != StackKind::kNative) {
      layers.push_back(kDrivers);
    }
    auto layer_name = [&](Layer l, const char* what) {
      std::string name = std::string(LayerName(l)) + "." + what;
      return (l == kUkernelLayer || l == kVmmLayer) ? name : name + "." + st;
    };
    for (Layer l : layers) {
      out.push_back({layer_name(l, "sim_cycles_per_op"), PerOp(c.layer_cycles[l], n), "cycles",
                     n, ""});
    }
    out.push_back({"hw.device_cycles_per_op." + st, PerOp(c.layer_cycles[kHw], n), "cycles", n,
                   "device DMA"});
    out.push_back({"hw.idle_cycles_per_op." + st, PerOp(c.idle_cycles, n), "cycles", n, ""});
    const uint64_t tn = h.traced_requests;
    for (Layer l : layers) {
      out.push_back({layer_name(l, "host_us_per_op"), PerOp(h.layer_ns[l], tn) / 1e3, "us", tn,
                     "crossing-bounded"});
    }
    out.push_back({"os.syscalls_per_op." + st, PerOp(c.syscalls, n), "count", n, ""});
    const LatencyHistogram& sys = h.syscall_latency;
    const double q = TailQuantile(sys.count());
    AddLatency(out, "os.syscall_us", st, sys.QuantileUs(0.5), sys.QuantileUs(q), q, sys.count());
    out.push_back(
        {"hw.event_loop_us_per_op." + st, PerOp(h.event_loop_ns, tn) / 1e3, "us", tn, ""});
    const double plain_ops = plain_host[s].ops_per_s;
    out.push_back({"host.trace_overhead." + st,
                   plain_ops <= 0 ? 0 : traced_host[s].ops_per_s / plain_ops, "ratio", tn,
                   "traced / untraced ops_per_s"});
  }
}

void PrintSelfTimes(const PassResult& traced) {
  std::printf("\n# traced self time by span (ms; span minus its children)\n");
  std::printf("%-24s", "span");
  for (StackKind kind : kAllStacks) {
    std::printf(" %14s %9s", StackName(kind), "count");
  }
  std::printf("\n");
  for (size_t n = 0; n < kSpanNameCount; ++n) {
    std::printf("%-24s", SpanNameString(static_cast<SpanName>(n)));
    for (size_t s = 0; s < 3; ++s) {
      const HostStats& h = traced.stacks[s].host;
      std::printf(" %14.3f %9llu", static_cast<double>(h.self_ns[n]) / 1e6,
                  static_cast<unsigned long long>(h.span_count[n]));
    }
    std::printf("\n");
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %-8s n=%-8llu %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.n), m.note.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void Tally(const PassResult& pass, uint64_t& attempted, uint64_t& failed,
           std::vector<std::string>& errors) {
  for (size_t s = 0; s < 3; ++s) {
    const StackResult& r = pass.stacks[s];
    attempted += r.attempted;
    failed += r.failed_ids.size();
    if (!r.failed_ids.empty()) {
      errors.push_back(std::string(StackName(kAllStacks[s])) + ": " +
                       std::to_string(r.failed_ids.size()) + " failed requests (first id " +
                       std::to_string(r.failed_ids.front()) + ")");
    }
  }
  errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
}

int Usage() {
  std::fprintf(stderr,
               "usage: ukbench --workload <lifecycle|syscall_ctl|split_io|observed> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-dir <dir>]\n"
               "       ukbench selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    return RunSelfTests();
  }
  RunOptions o;
  bool have_workload = false;
  std::string span_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) {
        return Usage();
      }
      o.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.traced = value == "1";
    } else if (flag == "--span-dir") {
      span_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(o.seconds > 0)) {
    return Usage();
  }
  const Sizing sizing = SizingFor(o.workload);
  o.warmup = sizing.warmup;
  o.prefix = sizing.prefix;
  std::printf("# ukbench workload=%s seed=%llu seconds=%g trace=%d\n", WorkloadName(o.workload),
              static_cast<unsigned long long>(o.seed), o.seconds, o.traced ? 1 : 0);

  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  if (!o.traced) {
    const int reps = 12;
    const std::vector<double> setup = MeasureSetup(o, reps);
    if (setup.empty()) {
      errors.push_back("set-up failed");
    }
    const PassResult pass = RunPass(o);
    Tally(pass, attempted, failed, errors);
    // The median of the fastest quarter, for the reason KeptWindows gives.
    std::vector<Metric> shown;
    EndToEnd(pass, Quantile(setup, 0.125), setup.size(), attempted, failed, metrics, shown);
    PrintKindShares(pass);
    std::vector<double> ref_us;
    for (uint64_t ns : pass.reference_ns) {
      ref_us.push_back(static_cast<double>(ns) / 1e3);
    }
    std::printf("# host reference loop (CpuPicker): median %.1f us over %zu rounds\n",
                Median(ref_us), ref_us.size());
    std::printf("%-36s %16.6f %-8s n=%llu\n", "fail_frac", PerOp(failed, attempted), "fraction",
                static_cast<unsigned long long>(attempted));
    PrintMetrics(shown);
  } else {
    // Same workload and seed, traced then untraced. The traced pass gets at
    // most half the time (less when its span buffer fills first); the
    // untraced pass gets the rest.
    const uint64_t t0 = NowNs();
    RunOptions traced_opts = o;
    traced_opts.seconds = o.seconds / 2;
    const PassResult traced = RunPass(traced_opts);
    RunOptions plain_opts = o;
    plain_opts.traced = false;
    plain_opts.seconds =
        std::max(o.seconds / 4, o.seconds - static_cast<double>(NowNs() - t0) / 1e9);
    const PassResult plain = RunPass(plain_opts);
    Tally(plain, attempted, failed, errors);
    Tally(traced, attempted, failed, errors);
    for (size_t s = 0; s < 3; ++s) {
      const std::string diff = plain.stacks[s].counts.DescribeDiff(traced.stacks[s].counts);
      if (!diff.empty()) {
        errors.push_back(std::string(StackName(kAllStacks[s])) +
                         ": traced run differs from the untraced run (untraced/traced): " + diff);
      }
    }
    PerLayer(plain, traced, metrics);
    PrintSelfTimes(traced);
    if (!span_dir.empty()) {
      for (size_t s = 0; s < 3; ++s) {
        // One file per workload and stack, replaced by the next traced run.
        const std::string path = span_dir + "/" + WorkloadName(o.workload) + "-" +
                                 StackName(kAllStacks[s]) + ".spans.tsv";
        const std::string header = std::string("workload=") + WorkloadName(o.workload) +
                                   " seed=" + std::to_string(o.seed) +
                                   " stack=" + StackName(kAllStacks[s]);
        if (!traced.spans[s]->Write(path, header)) {
          errors.push_back("cannot write " + path);
        }
      }
    }
  }
  PrintMetrics(metrics);
  for (const std::string& e : errors) {
    std::printf("# FAILED CHECK: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ukbench

int main(int argc, char** argv) { return ukbench::Main(argc, argv); }
