#include "ukbench/runner.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <string_view>

#include "src/core/crossings.h"
#include "src/hw/fault_injector.h"
#include "src/os/netstack.h"
#include "src/workloads/netio.h"

// --- Allocation counter --------------------------------------------------------
// The benchmark binary's own global operator new: every heap allocation in
// the process (simulator and benchmark alike) is counted. Single-threaded,
// so a plain counter suffices.

namespace {
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ukbench {

using minios::SyscallRet;
using ukvm::DomainId;
using ukvm::Err;

uint64_t AllocCount() { return g_allocs; }

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u + static_cast<uint64_t>(ts.tv_nsec);
}

const char* StackName(StackKind stack) {
  switch (stack) {
    case StackKind::kNative:
      return "native";
    case StackKind::kUkernel:
      return "ukernel";
    case StackKind::kVmm:
      return "vmm";
  }
  return "?";
}

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"app",     "os", "ukernel", "vmm",
                                                      "drivers", "hw", "idle"};
  return kNames[layer];
}

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "request",          "os.syscall",  "hw.event_loop",  "workloads.wire_stream",
      "check.checkpoint", "stacks.boot", "stacks.teardown"};
  return kNames[name];
}

// --- Latency histogram ---------------------------------------------------------

namespace {

constexpr uint32_t kSubBits = 6;  // 64 buckets per power of two
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr uint32_t kMaxBits = 40;  // values clamp just below 2^40 ns (18 minutes)
constexpr size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

size_t BucketOf(uint64_t ns) {
  ns = std::min(ns, (uint64_t{1} << kMaxBits) - 1);
  if (ns < kSub) {
    return ns;
  }
  const auto e = static_cast<uint32_t>(std::bit_width(ns) - 1);  // >= kSubBits
  return (e - kSubBits + 1) * kSub + ((ns >> (e - kSubBits)) & (kSub - 1));
}

// Bucket `i` holds [lower, lower + width).
void BucketRange(size_t i, uint64_t& lower, uint64_t& width) {
  if (i < kSub) {
    lower = i;
    width = 1;
    return;
  }
  width = uint64_t{1} << (i / kSub - 1);
  lower = (kSub + i % kSub) * width;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double below = 0;
  size_t last = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    last = i;
    const double in = buckets_[i];
    if (below + in >= target) {
      uint64_t lower = 0;
      uint64_t width = 0;
      BucketRange(i, lower, width);
      const double frac = std::max(0.0, target - below) / in;
      return (static_cast<double>(lower) + frac * static_cast<double>(width)) / 1e3;
    }
    below += in;
  }
  uint64_t lower = 0;
  uint64_t width = 0;
  BucketRange(last, lower, width);
  return static_cast<double>(lower + width) / 1e3;
}

// --- Spans -----------------------------------------------------------------------

SpanLog::SpanLog(size_t capacity) : spans_(capacity) {}

uint32_t SpanLog::Begin(SpanName name, uint64_t request) {
  if (used_ >= spans_.size() || depth_ >= open_.size()) {
    return kNone;
  }
  const auto slot = static_cast<uint32_t>(used_++);
  Span& s = spans_[slot];
  s.name = name;
  s.request = request;
  s.parent = depth_ == 0 ? kNone : open_[depth_ - 1];
  open_[depth_++] = slot;
  s.start_ns = NowNs();
  return slot;
}

void SpanLog::End(uint32_t slot) {
  if (slot == kNone) {
    return;
  }
  spans_[slot].end_ns = NowNs();
  if (depth_ > 0 && open_[depth_ - 1] == slot) {
    --depth_;
  }
}

std::vector<uint64_t> SpanLog::SelfTimes() const {
  std::vector<uint64_t> self(used_);
  for (size_t i = 0; i < used_; ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (size_t i = 0; i < used_; ++i) {
    const uint32_t p = spans_[i].parent;
    if (p != kNone) {
      const uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
      self[p] -= std::min(self[p], d);
    }
  }
  return self;
}

bool SpanLog::Write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# %s\nindex\tname\trequest\tparent\tstart_ns\tend_ns\n", header.c_str());
  for (size_t i = 0; i < used_; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%lld\t%llu\t%llu\n", i, SpanNameString(s.name),
                 static_cast<unsigned long long>(s.request),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// Runs `f` inside a span when `log` is set. `f` returns a value.
template <typename F>
auto InSpan(SpanLog* log, SpanName name, uint64_t request, F&& f) {
  if (log == nullptr) {
    return f();
  }
  const uint32_t slot = log->Begin(name, request);
  auto result = f();
  log->End(slot);
  return result;
}

double MsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

}  // namespace

// --- CPU choice ------------------------------------------------------------------

// The reference loop reads random words of a 16 MiB buffer, so its time
// follows the cache and memory contention from neighbours that slows the
// simulator. It steers the run off a vCPU that is shared or clearly slower
// than the rest; it does not see every slow phase of the host (main.cc's
// KeptWindows deals with those).
CpuPicker::CpuPicker() : scratch_(uint64_t{1} << 21, 1) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus_.push_back(c);
      }
    }
  }
}

CpuPicker::~CpuPicker() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) {
    CPU_SET(c, &all);
  }
  if (!cpus_.empty()) {
    (void)sched_setaffinity(0, sizeof(all), &all);
  }
}

// Each pass reads words the previous passes did not, so no pass is served
// from lines an earlier one brought into the caches.
uint64_t CpuPicker::Time() {
  const uint64_t t0 = NowNs();
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 20000; ++i) {
    sum += scratch_[SplitMix64(state_) % scratch_.size()];
  }
  scratch_[sum % scratch_.size()] = sum;  // keeps the reads
  return NowNs() - t0;
}

uint64_t CpuPicker::Pick() {
  if (cpus_.size() < 2) {
    Time();
    return Time();
  }
  int best = cpus_.front();
  uint64_t best_ns = ~0ull;
  for (int c : cpus_) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    Time();  // the first pass settles the move to this CPU
    const uint64_t ns = Time();
    if (ns < best_ns) {
      best_ns = ns;
      best = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
  return best_ns;
}

// --- Crossing-bounded host attribution -------------------------------------------

// A domain outside the map cannot be charged without failing the layer
// budget, so crossings into one are rare; their time stays with the app.
Layer CrossingClock::LayerOf(DomainId domain) {
  for (const auto& [d, layer] : map_) {
    if (d == domain) {
      return layer;
    }
  }
  return kApp;
}

void CrossingClock::OnCrossing(const ukvm::CrossingEvent& event) {
  if (!active_) {
    return;
  }
  const uint64_t now = NowNs();
  ns_[current_] += now - last_ns_;
  current_ = LayerOf(event.to);
  last_ns_ = now;
}

void CrossingClock::BeginRequest() {
  active_ = true;
  current_ = kApp;
  last_ns_ = NowNs();
}

void CrossingClock::EndRequest() {
  ns_[current_] += NowNs() - last_ns_;
  active_ = false;
}

// --- Targets -----------------------------------------------------------------------

Target::Target(StackKind kind, bool observers) : kind_(kind), observers_(observers) {
  auto arm = [observers](auto& config) {
    config.race_detect = observers;
    config.trace.enabled = observers;
    config.request_trace.enabled = observers;
  };
  switch (kind) {
    case StackKind::kNative: {
      ustack::NativeStack::Config config;
      arm(config);
      native_ = std::make_unique<ustack::NativeStack>(config);
      break;
    }
    case StackKind::kUkernel: {
      ustack::UkernelStack::Config config;
      arm(config);
      ukernel_ = std::make_unique<ustack::UkernelStack>(config);
      break;
    }
    case StackKind::kVmm: {
      ustack::VmmStack::Config config;
      arm(config);
      vmm_ = std::make_unique<ustack::VmmStack>(config);
      break;
    }
  }
}

Target::~Target() = default;

hwsim::Machine& Target::machine() {
  return native_ ? native_->machine() : ukernel_ ? ukernel_->machine() : vmm_->machine();
}
hwsim::Nic& Target::nic() {
  return native_ ? native_->nic() : ukernel_ ? ukernel_->nic() : vmm_->nic();
}
hwsim::Disk& Target::disk() {
  return native_ ? native_->disk() : ukernel_ ? ukernel_->disk() : vmm_->disk();
}
minios::Os& Target::os() {
  return native_ ? native_->os() : ukernel_ ? ukernel_->guest_os(0) : vmm_->guest_os(0);
}
ucheck::Auditor* Target::auditor() {
  return native_ ? native_->auditor() : ukernel_ ? ukernel_->auditor() : vmm_->auditor();
}

Err Target::RunAsApp(const std::function<void()>& fn) {
  if (ukernel_) {
    return ukernel_->RunAsApp(0, fn);
  }
  if (vmm_) {
    return vmm_->RunAsApp(0, fn);
  }
  fn();
  return Err::kNone;
}

void Target::RouteWirePort(uint16_t port) {
  if (ukernel_) {
    ukernel_->RouteWirePort(port, 0);
  } else if (vmm_) {
    vmm_->RouteWirePort(port, 0);
  }
}

LayerMap Target::Layers() {
  LayerMap map = {{hwsim::kIdleDomain, kIdle}, {ukvm::kHardwareDomain, kHw}};
  if (native_) {
    map.emplace_back(native_->os_domain(), kOs);
  } else if (ukernel_) {
    map.emplace_back(ukernel_->kernel().kernel_domain(), kUkernelLayer);
    map.emplace_back(ukernel_->sigma0().task(), kDrivers);
    map.emplace_back(ukernel_->net_server().task(), kDrivers);
    map.emplace_back(ukernel_->block_server().task(), kDrivers);
    map.emplace_back(ukernel_->guest(0).os_task, kOs);
    map.emplace_back(ukernel_->guest(0).app_task, kApp);
  } else {
    map.emplace_back(vmm_->hv().vmm_domain(), kVmmLayer);
    map.emplace_back(vmm_->dom0(), kDrivers);
    map.emplace_back(vmm_->storage_domain(), kDrivers);
    map.emplace_back(vmm_->net_domain(), kDrivers);
    map.emplace_back(vmm_->guest(0).domain, kOs);
  }
  return map;
}

uint64_t MemoryBytes(StackKind kind) {
  switch (kind) {
    case StackKind::kNative:
      return ustack::NativeStack::Config{}.memory_bytes;
    case StackKind::kUkernel:
      return ustack::UkernelStack::Config{}.memory_bytes;
    case StackKind::kVmm:
      return ustack::VmmStack::Config{}.memory_bytes;
  }
  return 0;
}

// --- Counts ------------------------------------------------------------------------

void Counts::Add(const Counts& o) {
  requests += o.requests;
  busy_cycles += o.busy_cycles;
  idle_cycles += o.idle_cycles;
  for (size_t i = 0; i < kLayerCount; ++i) {
    layer_cycles[i] += o.layer_cycles[i];
  }
  charges += o.charges;
  allocs += o.allocs;
  ledger_records += o.ledger_records;
  ipc_like += o.ipc_like;
  bytes_moved += o.bytes_moved;
  uk_ipc_calls += o.uk_ipc_calls;
  uk_string_bytes += o.uk_string_bytes;
  hypercalls += o.hypercalls;
  evtchn_sends += o.evtchn_sends;
  grant_ops += o.grant_ops;
  page_flips += o.page_flips;
  syscalls += o.syscalls;
  frames_used = std::max(frames_used, o.frames_used);
  digest = digest * 0x100000001b3ull ^ o.digest;
}

std::string Counts::DescribeDiff(const Counts& o) const {
  std::string out;
  auto field = [&out](const char* name, uint64_t a, uint64_t b) {
    if (a != b) {
      out += std::string(out.empty() ? "" : ", ") + name + " " + std::to_string(a) + "/" +
             std::to_string(b);
    }
  };
  field("requests", requests, o.requests);
  field("busy_cycles", busy_cycles, o.busy_cycles);
  field("idle_cycles", idle_cycles, o.idle_cycles);
  for (size_t l = 0; l < kLayerCount; ++l) {
    field(LayerName(static_cast<Layer>(l)), layer_cycles[l], o.layer_cycles[l]);
  }
  field("charges", charges, o.charges);
  field("allocs", allocs, o.allocs);
  field("ledger_records", ledger_records, o.ledger_records);
  field("ipc_like", ipc_like, o.ipc_like);
  field("bytes_moved", bytes_moved, o.bytes_moved);
  field("uk_ipc_calls", uk_ipc_calls, o.uk_ipc_calls);
  field("uk_string_bytes", uk_string_bytes, o.uk_string_bytes);
  field("hypercalls", hypercalls, o.hypercalls);
  field("evtchn_sends", evtchn_sends, o.evtchn_sends);
  field("grant_ops", grant_ops, o.grant_ops);
  field("page_flips", page_flips, o.page_flips);
  field("syscalls", syscalls, o.syscalls);
  field("frames_used", frames_used, o.frames_used);
  field("digest", digest, o.digest);
  return out;
}

bool LayerBudget(const std::vector<std::pair<DomainId, uint64_t>>& before,
                 const std::vector<std::pair<DomainId, uint64_t>>& after, uint64_t total_cycles,
                 const LayerMap& map, Counts& out, std::string& error) {
  out.layer_cycles = {};
  out.busy_cycles = 0;
  out.idle_cycles = 0;
  for (const auto& [domain, cycles] : after) {
    uint64_t prior = 0;
    for (const auto& [d, c] : before) {
      if (d == domain) {
        prior = c;
      }
    }
    const uint64_t delta = cycles - prior;
    if (delta == 0) {
      continue;
    }
    const auto it = std::find_if(map.begin(), map.end(),
                                 [domain](const auto& e) { return e.first == domain; });
    if (it == map.end()) {
      error = "layer budget: domain " + std::to_string(domain.value()) + " charged " +
              std::to_string(delta) + " cycles but maps to no layer";
      return false;
    }
    out.layer_cycles[it->second] += delta;
  }
  out.idle_cycles = out.layer_cycles[kIdle];
  if (total_cycles < out.idle_cycles) {
    error = "layer budget: " + std::to_string(out.idle_cycles) + " idle cycles exceed the " +
            std::to_string(total_cycles) + " accounted in total";
    return false;
  }
  out.busy_cycles = total_cycles - out.idle_cycles;
  uint64_t sum = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    if (l != kIdle) {
      sum += out.layer_cycles[l];
    }
  }
  if (sum != out.busy_cycles) {
    error = "layer budget: layers sum to " + std::to_string(sum) + " of " +
            std::to_string(out.busy_cycles) + " busy cycles";
    return false;
  }
  return true;
}

namespace {

constexpr uint16_t kRxPort = 40;
constexpr uint16_t kTxPort = 80;
constexpr uint16_t kSrcPort = 7;
constexpr uint64_t kRecvInterval = 10 * hwsim::kCyclesPerUs;
constexpr uint64_t kWaitTimeout = 20'000 * hwsim::kCyclesPerUs;
constexpr uint64_t kMinTimed = 50;  // timed requests per stack, even on a slow host
constexpr uint64_t kWindowNs = 50'000'000;
constexpr uint64_t kTurnWarmNs = 2'000'000;
constexpr size_t kSpanCapacity = 1u << 18;  // per stack; a traced pass ends when one fills

void Mix(uint64_t& h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0x100000001b3ull;
}

uint64_t HashBytes(const std::vector<uint8_t>& bytes, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

// WireHost::PatternByte(seq, 0) is (131 * seq + 3) mod 256, and 131 is odd,
// so the first payload byte names the stream sequence number (mod 256).
uint32_t SeqOfFirstByte(uint8_t b) {
  static const std::array<uint8_t, 256> kSeqOf = [] {
    std::array<uint8_t, 256> table{};
    for (uint32_t seq = 0; seq < 256; ++seq) {
      table[uwork::WireHost::PatternByte(seq, 0)] = static_cast<uint8_t>(seq);
    }
    return table;
  }();
  return kSeqOf[b];
}

// Public state read before and after a stretch of requests.
struct Probe {
  std::vector<std::pair<DomainId, uint64_t>> by_domain;
  uint64_t total_cycles = 0;
  ukvm::CrossingSnapshot ledger;
  uint64_t ledger_records = 0;
  uint64_t syscalls = 0;
  uint64_t page_flips = 0;
  uint64_t allocs = 0;
};

Probe TakeProbe(Target& t, bool allocs_last) {
  Probe p;
  if (!allocs_last) {
    p.allocs = AllocCount();
  }
  p.by_domain = t.machine().accounting().ByDomain();
  p.total_cycles = t.machine().accounting().total_cycles();
  p.ledger = t.machine().ledger().Snapshot();
  p.ledger_records = t.machine().ledger().events_recorded();
  p.syscalls = t.os().total_syscalls();
  p.page_flips = t.machine().counters().Get("xen.page_flips");
  if (allocs_last) {
    p.allocs = AllocCount();
  }
  return p;
}

bool Diff(const Probe& a, const Probe& b, Target& t, const LayerMap& map, Counts& out,
          std::string& error) {
  if (!LayerBudget(a.by_domain, b.by_domain, b.total_cycles - a.total_cycles, map, out, error)) {
    return false;
  }
  const ukvm::CrossingSnapshot d = ukvm::DiffSnapshots(a.ledger, b.ledger);
  out.ipc_like = d.IpcLikeCount();
  out.bytes_moved = 0;
  for (const ukvm::MechanismStats& m : d.mechanisms) {
    out.bytes_moved += m.bytes;
    if (m.name == "l4.ipc.call") {
      out.uk_ipc_calls = m.count;
    } else if (m.name == "l4.ipc.string") {
      out.uk_string_bytes = m.bytes;
    } else if (m.name == "xen.hypercall") {
      out.hypercalls = m.count;
    } else if (m.name == "xen.evtchn.send") {
      out.evtchn_sends = m.count;
    } else if (std::string_view(m.name).starts_with("xen.gnttab.")) {
      out.grant_ops += m.count;
    }
  }
  out.ledger_records = b.ledger_records - a.ledger_records;
  out.syscalls = b.syscalls - a.syscalls;
  out.page_flips = b.page_flips - a.page_flips;
  out.allocs = b.allocs - a.allocs;
  const hwsim::PhysicalMemory& mem = t.machine().memory();
  out.frames_used = mem.num_frames() - mem.free_frames();
  return true;
}

// One benchmark process on one booted stack, fed requests one at a time.
class Session {
 public:
  Session(Target& target, SpanLog* spans, const RunOptions& options)
      : t_(target), os_(target.os()), machine_(target.machine()), spans_(spans),
        options_(options), wire_(target.machine(), target.nic()) {
    data_.reserve(kFileMax);
    back_.reserve(kFileMax);
    rx_.resize(2048);
  }

  // Spawns the benchmark process and binds the receive port. Runs as the
  // application, inside Target::RunAsApp.
  bool Prepare() {
    auto pid = os_.Spawn("ukbench");
    if (!pid.ok()) {
      return false;
    }
    pid_ = *pid;
    return Sys([&] { return os_.NetBind(pid_, kRxPort); }) == 0;
  }

  bool Execute(const Request& r, uint64_t& digest) {
    request_ = r.id;
    digest = 0xcbf29ce484222325ull ^ r.id;
    bool ok = true;
    switch (r.kind) {
      case Kind::kBurst:
        for (Op op : r.ops) {
          ok = Control(op, digest) && ok;
        }
        break;
      case Kind::kProgram:
        for (Op op : r.ops) {
          if (op == Op::kFile) {
            ok = FileRound(r, /*keep=*/false, /*retire=*/false, digest) && ok;
          } else if (op == Op::kSend) {
            ok = Send(r.dgram_bytes, r.data_seed ^ 0x5EED, digest) && ok;
          } else {
            ok = Control(op, digest) && ok;
          }
        }
        break;
      case Kind::kFileRound:
        ok = FileRound(r, r.keep_file, !r.keep_file, digest);
        break;
      case Kind::kSend:
        ok = Send(r.dgram_bytes, r.data_seed, digest);
        break;
      case Kind::kRecvBurst:
        ok = Receive(r, digest);
        break;
    }
    return ok;
  }

  // Wire-host totals over the whole session equal what the app sent.
  bool WireTotalsMatch() const {
    return wire_.packets_received() == sent_packets_ && wire_.bytes_received() == sent_bytes_;
  }

 private:
  template <typename F>
  SyscallRet Sys(F&& f) {
    return InSpan(spans_, kSpanSyscall, request_, f);
  }
  template <typename F>
  Err Loop(F&& f) {
    return InSpan(spans_, kSpanEventLoop, request_, f);
  }

  bool Control(Op op, uint64_t& d) {
    SyscallRet ret = -1;
    bool ok = false;
    switch (op) {
      case Op::kNull:
        ret = Sys([&] { return os_.Null(pid_); });
        ok = ret == 0;
        break;
      case Op::kGetPid:
        ret = Sys([&] { return os_.GetPid(pid_); });
        ok = ret == static_cast<SyscallRet>(pid_.value());
        break;
      case Op::kGetTime:
        ret = Sys([&] { return os_.GetTime(pid_); });
        ok = ret >= last_time_;
        last_time_ = ret;
        ret = ok ? 0 : ret;  // the clock differs by stack; only its order is app-visible
        break;
      case Op::kYield:
        ret = Sys([&] { return os_.Yield(pid_); });
        ok = ret == 0;
        break;
      case Op::kFile:
      case Op::kSend:
        break;
    }
    Mix(d, static_cast<uint64_t>(op));
    Mix(d, static_cast<uint64_t>(ret));
    return ok;
  }

  bool WriteAll(int64_t fd, size_t len) {
    size_t done = 0;
    while (done < len) {
      const SyscallRet n = Sys([&] {
        return os_.Write(pid_, fd, std::span<const uint8_t>(data_.data() + done, len - done));
      });
      if (n <= 0) {
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return done == len;
  }

  bool ReadAll(int64_t fd, size_t len) {
    back_.assign(len, 0);
    size_t done = 0;
    while (done < len) {
      const SyscallRet n = Sys([&] {
        return os_.Read(pid_, fd, std::span<uint8_t>(back_.data() + done, len - done));
      });
      if (n <= 0) {
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return done == len;
  }

  // Mutation self-test: flips one byte of this file's first data block in
  // the disk's backing store, behind the filesystem's back.
  void CorruptFileOnDisk() {
    hwsim::Disk& disk = t_.disk();
    const uint32_t bs = disk.config().block_size;
    std::vector<uint8_t> block(bs);
    for (uint64_t lba = 0; lba < disk.config().capacity_blocks; ++lba) {
      if (disk.ReadBacking(lba, block) != Err::kNone) {
        return;
      }
      if (std::equal(block.begin(), block.end(), data_.begin())) {
        block[bs / 2] ^= 0xFF;
        (void)disk.WriteBacking(lba, block);
        return;
      }
    }
  }

  bool FileRound(const Request& r, bool keep, bool retire, uint64_t& d) {
    FillPayload(r.data_seed, data_, r.file_bytes);
    std::string name = "f" + std::to_string(r.id);
    const SyscallRet fd = Sys([&] { return os_.Create(pid_, name); });
    Mix(d, static_cast<uint64_t>(fd));
    if (fd < 0) {
      return false;
    }
    bool ok = WriteAll(fd, r.file_bytes);
    if (r.id == options_.corrupt_disk_request) {
      CorruptFileOnDisk();
    }
    ok = Sys([&] { return os_.Seek(pid_, fd, 0); }) >= 0 && ok;
    ok = ReadAll(fd, r.file_bytes) && ok;
    ok = back_ == data_ && ok;
    Mix(d, HashBytes(back_, back_.size()));
    ok = Sys([&] { return os_.Close(pid_, fd); }) == 0 && ok;
    if (keep) {
      live_.push_back(std::move(name));
    } else {
      ok = Sys([&] { return os_.Unlink(pid_, name); }) == 0 && ok;
    }
    if (retire && !live_.empty()) {
      ok = Sys([&] { return os_.Unlink(pid_, live_.front()); }) == 0 && ok;
      live_.pop_front();
    }
    Mix(d, ok ? 1 : 0);
    return ok;
  }

  bool Send(uint32_t bytes, uint64_t seed, uint64_t& d) {
    FillPayload(seed, data_, bytes);
    const SyscallRet ret = Sys([&] {
      return os_.NetSend(pid_, kTxPort, kSrcPort, std::span<const uint8_t>(data_.data(), bytes));
    });
    Mix(d, static_cast<uint64_t>(ret));
    if (ret != static_cast<SyscallRet>(bytes)) {
      return false;
    }
    ++sent_packets_;
    sent_bytes_ += bytes + minios::kNetHeaderBytes;
    const Err err = Loop([&] {
      return machine_.WaitUntil([this] { return wire_.packets_received() >= sent_packets_; },
                                kWaitTimeout);
    });
    return err == Err::kNone && WireTotalsMatch();
  }

  bool Receive(const Request& r, uint64_t& d) {
    std::unique_ptr<hwsim::FaultInjector> corrupt;
    if (r.id == options_.corrupt_wire_request) {
      // Mutation self-test: every frame of this burst gets one byte flipped
      // in transit.
      hwsim::FaultPlan plan;
      plan.nic_corrupt.probability = 1.0;
      corrupt = std::make_unique<hwsim::FaultInjector>(machine_, plan);
      t_.nic().SetFaultInjector(corrupt.get());
    }
    InSpan(spans_, kSpanWireStream, request_, [&] {
      wire_.StartStream(kRxPort, r.dgram_bytes, kRecvInterval, r.dgram_count);
      return 0;
    });
    bool ok = true;
    uint64_t seen = 0;
    uint32_t got = 0;
    while (got < r.dgram_count) {
      if (os_.net().QueuedOn(kRxPort) == 0) {
        const Err err = Loop([&] {
          return machine_.WaitUntil([this] { return os_.net().QueuedOn(kRxPort) > 0; },
                                    kWaitTimeout);
        });
        if (err != Err::kNone) {
          ok = false;
          break;
        }
      }
      const SyscallRet n = Sys([&] { return os_.NetRecv(pid_, kRxPort, rx_); });
      ++got;
      Mix(d, static_cast<uint64_t>(n));
      if (n != static_cast<SyscallRet>(r.dgram_bytes)) {
        ok = false;
        continue;
      }
      const uint32_t seq = SeqOfFirstByte(rx_[0]);
      if (seq >= r.dgram_count || ((seen >> seq) & 1) != 0) {
        ok = false;
        continue;
      }
      seen |= uint64_t{1} << seq;
      for (uint32_t i = 0; i < r.dgram_bytes; ++i) {
        if (rx_[i] != uwork::WireHost::PatternByte(seq, i)) {
          ok = false;
          break;
        }
      }
      Mix(d, HashBytes(rx_, r.dgram_bytes));
    }
    if (corrupt != nullptr) {
      t_.nic().SetFaultInjector(nullptr);
    }
    if (!ok) {
      // Leave nothing queued for the next request.
      while (os_.net().QueuedOn(kRxPort) > 0 &&
             Sys([&] { return os_.NetRecv(pid_, kRxPort, rx_); }) >= 0) {
      }
    }
    return ok && os_.net().QueuedOn(kRxPort) == 0;
  }

  Target& t_;
  minios::Os& os_;
  hwsim::Machine& machine_;
  SpanLog* spans_;
  const RunOptions& options_;
  uwork::WireHost wire_;
  ukvm::ProcessId pid_;
  uint64_t request_ = 0;
  SyscallRet last_time_ = 0;
  uint64_t sent_packets_ = 0;
  uint64_t sent_bytes_ = 0;
  std::deque<std::string> live_;
  std::vector<uint8_t> data_;
  std::vector<uint8_t> back_;
  std::vector<uint8_t> rx_;
};

std::string Where(StackKind kind, const char* what) {
  return std::string(StackName(kind)) + ": " + what;
}

// Checkpoints the auditor; any violation (or, with observers armed, a race
// report or an unclean request-trace lint) is an error.
void Audit(Target& t, SpanLog* spans, uint64_t request, const char* phase, HostStats& host,
           std::vector<std::string>& errors) {
  ucheck::Auditor* auditor = t.auditor();
  if (auditor == nullptr) {
    errors.push_back(Where(t.kind(), "no auditor (UKVM_CHECK off?)"));
    return;
  }
  const uint64_t t0 = NowNs();
  InSpan(spans, kSpanCheckpoint, request, [&] {
    auditor->Checkpoint(phase);
    return 0;
  });
  host.checkpoint_ms.push_back(MsSince(t0));
  if (auditor->violation_count() != 0) {
    const auto reports = auditor->ViolationReports();
    errors.push_back(Where(t.kind(), "auditor violations at ") + phase + ": " +
                     std::to_string(auditor->violation_count()) + " (first: " +
                     (reports.empty() ? std::string("?") : reports.front()) + ")");
  }
  if (t.observers()) {
    if (auditor->race() == nullptr) {
      errors.push_back(Where(t.kind(), "race detector not armed"));
    }
    if (!t.machine().reqtrace().Lint().clean()) {
      errors.push_back(Where(t.kind(), "request-trace lint not clean at ") + phase);
    }
  }
}

std::unique_ptr<Target> Boot(StackKind kind, bool observers, SpanLog* spans, uint64_t request,
                             HostStats& host) {
  const uint64_t t0 = NowNs();
  auto t = InSpan(spans, kSpanBoot, request,
                  [&] { return std::make_unique<Target>(kind, observers); });
  host.boot_ms.push_back(MsSince(t0));
  return t;
}

void Teardown(std::unique_ptr<Target> t, SpanLog* spans, uint64_t request, HostStats& host) {
  const uint64_t t0 = NowNs();
  InSpan(spans, kSpanTeardown, request, [&] {
    t.reset();
    return 0;
  });
  host.teardown_ms.push_back(MsSince(t0));
}

LayerMap MapFor(Target& t, const RunOptions& o) {
  LayerMap map = t.Layers();
  if (o.drop_one_domain) {
    map.pop_back();
  }
  return map;
}

// Timed stretches of one traced pass: span-derived host numbers.
void Summarize(const SpanLog& log, uint64_t first_timed, HostStats& host) {
  const std::vector<uint64_t> self = log.SelfTimes();
  for (size_t i = 0; i < log.size(); ++i) {
    const SpanLog::Span& s = log.at(i);
    host.self_ns[s.name] += self[i];
    ++host.span_count[s.name];
    if (s.request < first_timed) {
      continue;
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    if (s.name == kSpanSyscall) {
      host.syscall_latency.Add(dur);
    } else if (s.name == kSpanEventLoop) {
      host.event_loop_ns += dur;
    }
  }
}

// One stack of a steady workload: its booted target and its own copy of
// the stream.
struct Lane {
  StackKind kind;
  StackResult* res;
  SpanLog* spans;
  std::unique_ptr<Target> t;
  LayerMap map;
  std::unique_ptr<Session> session;
  std::unique_ptr<CrossingClock> clock;
  uint32_t sink = 0;
  Stream stream;
  uint64_t timed = 0;

  Lane(StackKind k, StackResult* r, SpanLog* s, Workload w, uint64_t seed)
      : kind(k), res(r), spans(s), stream(w, seed) {}

  uint64_t RunOne(const Request& r) {
    uint64_t digest = 0;
    ++res->attempted;
    if (!session->Execute(r, digest)) {
      res->failed_ids.push_back(r.id);
    }
    return digest;
  }
};

// Enters every lane's application context (RunAsApp), innermost last, and
// runs `body` inside all of them. The stacks share no state, so each one's
// context survives the others' turns.
void InAppContexts(std::vector<std::unique_ptr<Lane>>& lanes, size_t i,
                   const std::function<void()>& body, std::vector<std::string>& errors) {
  if (i == lanes.size()) {
    body();
    return;
  }
  if (lanes[i]->t->RunAsApp([&] { InAppContexts(lanes, i + 1, body, errors); }) != Err::kNone) {
    errors.push_back(Where(lanes[i]->kind, "RunAsApp failed"));
  }
}

// Warm-up, then the deterministic prefix under count probes.
void RunPrefix(Lane& lane, const RunOptions& o, std::vector<std::string>& errors) {
  Target& t = *lane.t;
  StackResult& res = *lane.res;
  for (uint64_t i = 0; i < o.warmup; ++i) {
    res.digests.push_back(lane.RunOne(lane.stream.Next()));
  }
  ukvm::ChargeObserver* displaced = t.observers() ? &t.machine().tracer().profiler() : nullptr;
  ChargeCounter counter(displaced);
  t.machine().accounting().SetObserver(&counter);
  const Probe a = TakeProbe(t, /*allocs_last=*/true);
  for (uint64_t i = 0; i < o.prefix; ++i) {
    res.digests.push_back(lane.RunOne(lane.stream.Next()));
  }
  const Probe b = TakeProbe(t, /*allocs_last=*/false);
  t.machine().accounting().SetObserver(displaced);
  std::string error;
  if (!Diff(a, b, t, lane.map, res.counts, error)) {
    errors.push_back(Where(lane.kind, error.c_str()));
  }
  res.counts.requests = o.prefix;
  res.counts.charges = counter.count();
  for (uint64_t d : res.digests) {
    Mix(res.counts.digest, d);
  }
  Audit(t, lane.spans, o.warmup + o.prefix, "prefix", res.host, errors);
}

// One turn of about kWindowNs on one lane; returns false once the lane may
// not take another request (cap reached or span buffer full). The first
// kTurnWarmNs run untimed: the other stacks' turns (and a move to another
// vCPU) evicted this stack's working set from the caches, a cost that only
// interleaving creates.
bool RunTurn(Lane& lane, const RunOptions& o) {
  Window& w = lane.res->host.windows.emplace_back();
  const uint64_t turn_start = NowNs();
  uint64_t cpu_start = 0;
  uint64_t now = turn_start;
  while (now - turn_start < kWindowNs + kTurnWarmNs) {
    if (lane.timed >= o.max_timed || (lane.spans != nullptr && lane.spans->full())) {
      break;
    }
    const Request r = lane.stream.Next();
    const uint64_t q0 = NowNs();
    if (lane.spans != nullptr) {
      lane.clock->BeginRequest();
      const uint32_t slot = lane.spans->Begin(kSpanRequest, r.id);
      lane.RunOne(r);
      lane.spans->End(slot);
      lane.clock->EndRequest();
      ++lane.res->host.traced_requests;
    } else {
      lane.RunOne(r);
    }
    now = NowNs();
    if (q0 - turn_start < kTurnWarmNs) {
      cpu_start = ThreadCpuNs();
      continue;
    }
    ++w.requests;
    w.latency.Add(now - q0);
    w.kind_ns[static_cast<size_t>(r.kind)] += now - q0;
    ++w.kind_requests[static_cast<size_t>(r.kind)];
    ++lane.timed;
  }
  w.ns = ThreadCpuNs() - cpu_start;
  if (w.requests == 0) {
    lane.res->host.windows.pop_back();
    return lane.timed < o.max_timed && (lane.spans == nullptr || !lane.spans->full());
  }
  return true;
}

// syscall_ctl / split_io / observed: boot all three stacks, run each one's
// warm-up and prefix, then time requests with the stacks taking turns of
// kWindowNs each, so every stack sees the same phases of the shared host.
void RunSteady(const RunOptions& o, PassResult& out) {
  const uint64_t start = NowNs();
  const bool observers = o.workload == Workload::kObserved;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (size_t s = 0; s < 3; ++s) {
    auto lane = std::make_unique<Lane>(kAllStacks[s], &out.stacks[s], out.spans[s].get(),
                                       o.workload, o.seed);
    lane->t = Boot(lane->kind, observers, lane->spans, 0, lane->res->host);
    lane->t->RouteWirePort(kRxPort);
    lane->map = MapFor(*lane->t, o);
    lane->session = std::make_unique<Session>(*lane->t, lane->spans, o);
    if (lane->spans != nullptr) {
      lane->clock = std::make_unique<CrossingClock>(lane->map);
      lane->sink = lane->t->machine().ledger().AddTraceSink(
          [c = lane->clock.get()](const ukvm::CrossingEvent& e) { c->OnCrossing(e); });
    }
    lanes.push_back(std::move(lane));
  }

  InAppContexts(lanes, 0, [&] {
    for (auto& lane : lanes) {
      if (!lane->session->Prepare()) {
        out.errors.push_back(Where(lane->kind, "spawn/bind failed"));
        return;
      }
      RunPrefix(*lane, o, out.errors);
    }
    const double budget_ns = o.seconds * 1e9;
    CpuPicker cpus;
    bool more = true;
    while (more) {
      bool all_min = true;
      out.reference_ns.push_back(cpus.Pick());
      for (auto& lane : lanes) {
        more = RunTurn(*lane, o) && more;
        all_min = all_min && lane->timed >= kMinTimed;
      }
      more = more && (!all_min || static_cast<double>(NowNs() - start) < budget_ns);
    }
    for (auto& lane : lanes) {
      Audit(*lane->t, lane->spans, o.warmup + o.prefix + lane->timed, "end", lane->res->host,
            out.errors);
    }
  }, out.errors);

  for (auto& lane : lanes) {
    if (!lane->session->WireTotalsMatch()) {
      out.errors.push_back(Where(lane->kind, "wire-host packet/byte totals differ from the sends"));
    }
    if (lane->sink != 0) {
      lane->t->machine().ledger().RemoveTraceSink(lane->sink);
      lane->res->host.layer_ns = lane->clock->ns();
    }
    lane->session.reset();
    Teardown(std::move(lane->t), lane->spans, ~0ull, lane->res->host);
    if (lane->spans != nullptr) {
      Summarize(*lane->spans, o.warmup + o.prefix, lane->res->host);
    }
  }
}

// One lifecycle seed: boot `kind`, run `program`, checkpoint, destroy.
// Counts cover boot to checkpoint; charges are counted from the end of boot
// (the stack constructors boot before an observer can attach).
bool RunSeed(StackKind kind, const Request& program, const RunOptions& o, SpanLog* spans,
             StackResult& res, Counts* counts, std::array<uint64_t, kLayerCount>* layer_ns,
             uint64_t& digest, std::vector<std::string>& errors) {
  const uint64_t allocs0 = AllocCount();
  std::unique_ptr<Target> t = Boot(kind, false, spans, program.id, res.host);
  t->RouteWirePort(kRxPort);
  const LayerMap map = MapFor(*t, o);
  ChargeCounter counter(nullptr);
  t->machine().accounting().SetObserver(&counter);
  std::unique_ptr<CrossingClock> clock;
  uint32_t sink = 0;
  uint64_t excluded_allocs = 0;
  if (layer_ns != nullptr) {
    // Traced-only set-up stays out of the seed's allocation count.
    const uint64_t a0 = AllocCount();
    clock = std::make_unique<CrossingClock>(map);
    sink = t->machine().ledger().AddTraceSink(
        [c = clock.get()](const ukvm::CrossingEvent& e) { c->OnCrossing(e); });
    excluded_allocs = AllocCount() - a0;
  }
  bool ok = false;
  {
    Session session(*t, spans, o);
    const size_t errors_before = errors.size();
    const Err app_err = t->RunAsApp([&] {
      if (!session.Prepare()) {
        errors.push_back(Where(kind, "spawn/bind failed"));
        return;
      }
      if (clock) {
        clock->BeginRequest();
      }
      ok = session.Execute(program, digest);
      if (clock) {
        clock->EndRequest();
      }
    });
    if (app_err != Err::kNone) {
      errors.push_back(Where(kind, "RunAsApp failed"));
    }
    Audit(*t, spans, program.id, "seed", res.host, errors);
    if (!session.WireTotalsMatch()) {
      errors.push_back(Where(kind, "wire-host packet/byte totals differ from the sends"));
    }
    ok = ok && errors.size() == errors_before;
  }
  if (sink != 0) {
    t->machine().ledger().RemoveTraceSink(sink);
    for (size_t l = 0; l < kLayerCount; ++l) {
      (*layer_ns)[l] += clock->ns()[l];
    }
  }
  t->machine().accounting().SetObserver(nullptr);
  if (counts != nullptr) {
    Counts c;
    std::string error;
    const Probe empty;
    const Probe end = TakeProbe(*t, false);
    if (!Diff(empty, end, *t, map, c, error)) {
      errors.push_back(Where(kind, error.c_str()));
    }
    c.requests = 1;
    c.charges = counter.count();
    c.digest = digest;
    // Teardown is left out: destroyed page tables hand their TLB salts to a
    // process-wide registry whose container growth depends on the history
    // of the whole process, not on this seed.
    c.allocs = AllocCount() - allocs0 - excluded_allocs;
    Teardown(std::move(t), spans, program.id, res.host);
    counts->Add(c);
  } else {
    Teardown(std::move(t), spans, program.id, res.host);
  }
  return ok;
}

// lifecycle: each generated program runs on native, ukernel and vmm in
// turn, every seed on a freshly booted stack.
void RunLifecycle(const RunOptions& o, PassResult& out) {
  // One uncounted warm-up seed per stack first, so one-time host work
  // (first-use statics) never lands in a counted seed.
  const Request warmup = Stream(Workload::kLifecycle, ~o.seed).Next();
  for (size_t s = 0; s < 3; ++s) {
    StackResult scratch;
    uint64_t digest = 0;
    if (!RunSeed(kAllStacks[s], warmup, o, nullptr, scratch, nullptr, nullptr, digest,
                 out.errors)) {
      out.errors.push_back(Where(kAllStacks[s], "warm-up seed failed"));
    }
  }
  Stream stream(Workload::kLifecycle, o.seed);
  const uint64_t start = NowNs();
  CpuPicker cpus;
  uint64_t programs = 0;
  // Every seed is timed (each is its own window); counts cover the first
  // o.prefix programs.
  while (programs < o.prefix ||
         (programs < o.max_timed &&
          (programs < kMinTimed / 3 || static_cast<double>(NowNs() - start) < o.seconds * 1e9) &&
          (out.spans[0] == nullptr || !out.spans[0]->full()))) {
    const bool counted = programs < o.prefix;
    const Request program = stream.Next();
    out.reference_ns.push_back(cpus.Pick());
    std::array<uint64_t, 3> digests{};
    for (size_t s = 0; s < 3; ++s) {
      StackResult& res = out.stacks[s];
      SpanLog* spans = out.spans[s].get();
      const uint64_t q0 = NowNs();
      const uint64_t c0 = ThreadCpuNs();
      const uint32_t slot =
          spans != nullptr ? spans->Begin(kSpanRequest, program.id) : SpanLog::kNone;
      const bool ok =
          RunSeed(kAllStacks[s], program, o, spans, res, counted ? &res.counts : nullptr,
                  spans != nullptr ? &res.host.layer_ns : nullptr, digests[s], out.errors);
      if (spans != nullptr) {
        spans->End(slot);
      }
      const uint64_t cpu_ns = ThreadCpuNs() - c0;
      const uint64_t dt = NowNs() - q0;
      ++res.attempted;
      if (!ok) {
        res.failed_ids.push_back(program.id);
      }
      res.digests.push_back(digests[s]);
      Window& w = res.host.windows.emplace_back();
      w.requests = 1;
      w.ns = cpu_ns;
      w.latency.Add(dt);
      w.kind_ns[static_cast<size_t>(program.kind)] = dt;
      w.kind_requests[static_cast<size_t>(program.kind)] = 1;
    }
    ++programs;
  }
  for (size_t s = 0; s < 3; ++s) {
    if (out.spans[s] != nullptr) {
      out.stacks[s].host.traced_requests = programs;
      Summarize(*out.spans[s], 0, out.stacks[s].host);
    }
  }
}

}  // namespace

PassResult RunPass(const RunOptions& o) {
  PassResult out;
  if (o.traced) {
    for (auto& log : out.spans) {
      log = std::make_unique<SpanLog>(kSpanCapacity);
    }
  }
  if (o.workload == Workload::kLifecycle) {
    RunLifecycle(o, out);
  } else {
    RunSteady(o, out);
  }
  // App-visible results must not depend on the stack.
  for (size_t s = 1; s < 3; ++s) {
    if (out.stacks[s].digests != out.stacks[0].digests) {
      out.errors.push_back(std::string("app-visible results differ between native and ") +
                           StackName(kAllStacks[s]));
    }
  }
  return out;
}

std::vector<double> MeasureSetup(const RunOptions& o, int reps) {
  std::vector<double> times;
  std::vector<std::string> errors;
  CpuPicker cpus;
  for (int rep = 0; rep < reps; ++rep) {
    cpus.Pick();
    uint64_t elapsed = 0;
    uint64_t t0 = ThreadCpuNs();
    if (o.workload == Workload::kLifecycle) {
      // One untimed warm-up seed per stack, from its own stream.
      const Request program = Stream(Workload::kLifecycle, ~o.seed).Next();
      for (StackKind kind : kAllStacks) {
        StackResult res;
        uint64_t digest = 0;
        if (!RunSeed(kind, program, o, nullptr, res, nullptr, nullptr, digest, errors)) {
          errors.push_back("setup warm-up seed failed");
        }
      }
      elapsed = ThreadCpuNs() - t0;
    } else {
      Stream stream(o.workload, o.seed);
      std::vector<Request> requests;
      requests.reserve(o.warmup + o.prefix);
      for (uint64_t i = 0; i < o.warmup + o.prefix; ++i) {
        requests.push_back(stream.Next());
      }
      for (StackKind kind : kAllStacks) {
        auto t = std::make_unique<Target>(kind, o.workload == Workload::kObserved);
        t->RouteWirePort(kRxPort);
        {
          Session session(*t, nullptr, o);
          bool prepared = false;
          (void)t->RunAsApp([&] { prepared = session.Prepare(); });
          if (!prepared) {
            errors.push_back("setup: spawn/bind failed");
          }
        }
        elapsed += ThreadCpuNs() - t0;
        t.reset();  // teardown is not set-up
        t0 = ThreadCpuNs();
      }
    }
    times.push_back(static_cast<double>(elapsed) / 1e9);
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "setup failed: %s\n", errors.front().c_str());
    return {};
  }
  return times;
}

}  // namespace ukbench
