#include "ukbench/selftest.h"

#include <cstdio>
#include <string>
#include <vector>

#include "ukbench/runner.h"
#include "ukbench/workload.h"

namespace ukbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::vector<uint8_t> Encode(Workload w, uint64_t seed, size_t n) {
  Stream stream(w, seed);
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < n; ++i) {
    AppendEncoding(stream.Next(), bytes);
  }
  return bytes;
}

bool InRange(uint32_t v, uint32_t lo, uint32_t hi) { return v >= lo && v <= hi; }

void StreamTests() {
  const Workload all[] = {Workload::kLifecycle, Workload::kSyscallCtl, Workload::kSplitIo,
                          Workload::kObserved};
  for (Workload w : all) {
    const std::string name = WorkloadName(w);
    Expect(Encode(w, 11, 2000) == Encode(w, 11, 2000), name + ": same seed, identical stream");
    Expect(Encode(w, 11, 2000) != Encode(w, 12, 2000), name + ": other seed, other stream");
  }
  Expect(Encode(Workload::kObserved, 11, 2000) == Encode(Workload::kSplitIo, 11, 2000),
         "observed replays split_io's stream");

  for (uint64_t seed : {1ull, 2ull, 99ull}) {
    const std::string tag = " (seed " + std::to_string(seed) + ")";
    {
      Stream s(Workload::kSplitIo, seed);
      uint32_t file = 0, send = 0, recv = 0;
      bool ranges = true;
      int64_t live = 0;
      bool live_ok = true;
      for (uint32_t i = 0; i < kMixBlock * 100; ++i) {
        const Request r = s.Next();
        switch (r.kind) {
          case Kind::kFileRound:
            ++file;
            ranges = ranges && InRange(r.file_bytes, kFileMin, kFileMax);
            live += r.keep_file ? 1 : -1;
            live = std::max<int64_t>(live, 0);
            live_ok = live_ok && live <= 47;
            break;
          case Kind::kSend:
            ++send;
            ranges = ranges && InRange(r.dgram_bytes, kDgramMin, kDgramMax);
            break;
          case Kind::kRecvBurst:
            ++recv;
            ranges = ranges && InRange(r.dgram_bytes, kDgramMin, kDgramMax) &&
                     InRange(r.dgram_count, kRecvMin, kRecvMax);
            break;
          default:
            ranges = false;
        }
      }
      Expect(file == kMixFile * 100 && send == kMixSend * 100 && recv == kMixRecv * 100,
             "split_io: mix is exactly its declared proportions" + tag);
      Expect(ranges, "split_io: sizes and burst counts inside their ranges" + tag);
      Expect(live_ok, "split_io: live files stay within 0..47 beside the round's own" + tag);
    }
    {
      Stream s(Workload::kSyscallCtl, seed);
      uint64_t ops = 0;
      bool ok = true;
      const uint32_t bursts = (kBurstMaxOps - kBurstMinOps + 1) * 4;
      for (uint32_t i = 0; i < bursts; ++i) {
        const Request r = s.Next();
        ok = ok && r.kind == Kind::kBurst &&
             InRange(static_cast<uint32_t>(r.ops.size()), kBurstMinOps, kBurstMaxOps);
        for (Op op : r.ops) {
          ok = ok && (op == Op::kNull || op == Op::kGetPid || op == Op::kGetTime ||
                      op == Op::kYield);
        }
        ops += r.ops.size();
      }
      Expect(ok, "syscall_ctl: bursts of 8-64 control syscalls" + tag);
      Expect(ops == uint64_t{bursts} * (kBurstMinOps + kBurstMaxOps) / 2,
             "syscall_ctl: mean burst is exactly the range midpoint over whole bags" + tag);
    }
    {
      Stream s(Workload::kLifecycle, seed);
      bool ok = true;
      for (int i = 0; i < 500; ++i) {
        const Request r = s.Next();
        size_t files = 0, sends = 0, other = 0;
        for (Op op : r.ops) {
          files += op == Op::kFile;
          sends += op == Op::kSend;
          other += op == Op::kNull || op == Op::kGetPid || op == Op::kGetTime;
        }
        const auto syscalls = static_cast<uint32_t>(other + 6 * files + sends);
        ok = ok && files == 1 && sends == 1 && other + 2 == r.ops.size() &&
             InRange(syscalls, kProgramMinOps, kProgramMaxOps) &&
             InRange(r.file_bytes, kProgramFileMin, kProgramFileMax) &&
             InRange(r.dgram_bytes, kDgramMin, kDgramMax);
      }
      Expect(ok, "lifecycle: 16-64 syscall programs with one file round and one datagram" + tag);
    }
  }
}

RunOptions Short(Workload w) {
  RunOptions o;
  o.workload = w;
  o.seed = 5;
  o.seconds = 1;
  o.warmup = w == Workload::kLifecycle ? 0 : 16;
  // split_io: two whole mix blocks, so the prefix holds file rounds and
  // receive bursts.
  o.prefix = w == Workload::kLifecycle ? 2 : w == Workload::kSyscallCtl ? 48 : 2 * kMixBlock;
  o.max_timed = 0;
  return o;
}

void Explain(const Counts& a, const Counts& b) {
  const std::string diff = a.DescribeDiff(b);
  if (!diff.empty()) {
    std::printf("  differs: %s\n", diff.c_str());
  }
}

bool Clean(const PassResult& p) {
  bool ok = p.errors.empty();
  for (const std::string& e : p.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  for (const StackResult& r : p.stacks) {
    ok = ok && r.failed_ids.empty();
  }
  return ok;
}

void RunTests() {
  for (Workload w : {Workload::kLifecycle, Workload::kSyscallCtl, Workload::kSplitIo}) {
    const std::string name = WorkloadName(w);
    const PassResult a = RunPass(Short(w));
    const PassResult b = RunPass(Short(w));
    Expect(Clean(a) && Clean(b), name + ": short runs pass every check");
    bool same = true;
    for (size_t s = 0; s < 3; ++s) {
      same = same && a.stacks[s].counts == b.stacks[s].counts && a.stacks[s].counts.requests > 0;
      Explain(a.stacks[s].counts, b.stacks[s].counts);
    }
    Expect(same, name + ": two runs give identical deterministic metrics");

    RunOptions traced = Short(w);
    traced.traced = true;
    traced.max_timed = 3;
    const PassResult t = RunPass(traced);
    bool equal = Clean(t);
    for (size_t s = 0; s < 3; ++s) {
      equal = equal && t.stacks[s].counts == a.stacks[s].counts && t.spans[s]->size() > 0;
      Explain(a.stacks[s].counts, t.stacks[s].counts);
    }
    Expect(equal, name + ": traced run matches the untraced run on every count");
  }

  // Every observer armed at once perturbs nothing simulated.
  const PassResult plain = RunPass(Short(Workload::kSplitIo));
  const PassResult observed = RunPass(Short(Workload::kObserved));
  bool same = Clean(observed);
  for (size_t s = 0; s < 3; ++s) {
    Counts a = plain.stacks[s].counts;
    Counts b = observed.stacks[s].counts;
    a.allocs = b.allocs = 0;  // observers allocate; nothing else may differ
    same = same && a == b;
  }
  Expect(same, "observed equals split_io on every simulated metric and count");
}

void MutationTests() {
  RunOptions o = Short(Workload::kSplitIo);
  Stream stream(o.workload, o.seed);
  for (uint64_t i = 0; i < o.warmup + o.prefix; ++i) {
    const Request r = stream.Next();
    if (r.id < o.warmup) {
      continue;
    }
    if (r.kind == Kind::kFileRound && o.corrupt_disk_request == ~0ull) {
      o.corrupt_disk_request = r.id;
    }
    if (r.kind == Kind::kRecvBurst && o.corrupt_wire_request == ~0ull) {
      o.corrupt_wire_request = r.id;
    }
  }
  const PassResult p = RunPass(o);
  for (size_t s = 0; s < 3; ++s) {
    std::vector<uint64_t> expected = {std::min(o.corrupt_disk_request, o.corrupt_wire_request),
                                      std::max(o.corrupt_disk_request, o.corrupt_wire_request)};
    Expect(p.stacks[s].failed_ids == expected,
           std::string(StackName(kAllStacks[s])) +
               ": a corrupted disk block and corrupted wire frames fail exactly their requests");
  }

  RunOptions drop = Short(Workload::kSplitIo);
  drop.drop_one_domain = true;
  const PassResult d = RunPass(drop);
  for (StackKind kind : kAllStacks) {
    bool flagged = false;
    for (const std::string& e : d.errors) {
      flagged = flagged || (e.rfind(StackName(kind), 0) == 0 &&
                            e.find("maps to no layer") != std::string::npos);
    }
    Expect(flagged, std::string(StackName(kind)) + ": an unmapped domain fails the budget check");
  }

  Counts c;
  std::string error;
  const ukvm::DomainId d1(1), d2(2);
  Expect(!LayerBudget({}, {{d1, 10}, {d2, 5}}, 15, {{d1, kOs}}, c, error),
         "budget: a domain missing from the map is rejected");
  Expect(LayerBudget({{d1, 4}}, {{d1, 10}, {d2, 5}}, 11, {{d1, kOs}, {d2, kIdle}}, c, error) &&
             c.busy_cycles == 6 && c.idle_cycles == 5 && c.layer_cycles[kOs] == 6,
         "budget: deltas split into layers and sum to the busy total");
  error.clear();
  Expect(!LayerBudget({{d1, 4}}, {{d1, 10}, {d2, 5}}, 12, {{d1, kOs}, {d2, kIdle}}, c, error) &&
             error.find("layers sum to 6 of 7") != std::string::npos,
         "budget: a charge missing from the per-domain table fails the sum");
}

}  // namespace

int RunSelfTests() {
  StreamTests();
  RunTests();
  MutationTests();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace ukbench
