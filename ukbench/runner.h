// Drives generated request streams through the three stacks and checks
// every output. All timing and tracing lives on this side of the stacks'
// public APIs: spans wrap the benchmark's own calls into each layer, and
// counts come from public state deltas.

#ifndef UKBENCH_RUNNER_H_
#define UKBENCH_RUNNER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/ids.h"
#include "src/core/metrics.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"
#include "ukbench/workload.h"

namespace ukbench {

// Number of global operator new calls so far in this process.
uint64_t AllocCount();

uint64_t NowNs();

// CPU time of the calling thread (user + system). Unlike NowNs() it stops
// while the thread waits for a CPU, in the guest or, through steal-time
// accounting, on the host.
uint64_t ThreadCpuNs();

enum class StackKind : uint8_t { kNative, kUkernel, kVmm };
inline constexpr std::array<StackKind, 3> kAllStacks = {StackKind::kNative, StackKind::kUkernel,
                                                        StackKind::kVmm};
const char* StackName(StackKind stack);

// The layer every accounting domain belongs to.
// kHw is device DMA, which the machine bills to ukvm::kHardwareDomain.
enum Layer : uint8_t { kApp, kOs, kUkernelLayer, kVmmLayer, kDrivers, kHw, kIdle, kLayerCount };
const char* LayerName(Layer layer);
using LayerMap = std::vector<std::pair<ukvm::DomainId, Layer>>;

// --- Host-time spans ---------------------------------------------------------

enum SpanName : uint16_t {
  kSpanRequest,
  kSpanSyscall,     // one minios::Os call
  kSpanEventLoop,   // Machine::WaitUntil
  kSpanWireStream,  // uwork::WireHost::StartStream
  kSpanCheckpoint,  // ucheck::Auditor::Checkpoint
  kSpanBoot,        // stack constructor
  kSpanTeardown,    // stack destructor
  kSpanNameCount,
};
const char* SpanNameString(SpanName name);

// Spans in preallocated memory; recording stops (and full() turns true)
// when the buffer is exhausted.
class SpanLog {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;
  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t request = 0;
    uint32_t parent = kNone;
    SpanName name = kSpanRequest;
  };

  explicit SpanLog(size_t capacity);

  uint32_t Begin(SpanName name, uint64_t request);
  void End(uint32_t slot);
  bool full() const { return used_ + 1024 > spans_.size(); }
  size_t size() const { return used_; }
  const Span& at(size_t i) const { return spans_[i]; }
  // Span duration minus the time its direct children cover.
  std::vector<uint64_t> SelfTimes() const;
  bool Write(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  size_t used_ = 0;
  std::array<uint32_t, 32> open_{};
  size_t depth_ = 0;
};

// Host time between consecutive ledger crossings, charged to the layer of
// the crossing's `to` domain (a request starts in the app layer).
class CrossingClock {
 public:
  explicit CrossingClock(LayerMap map) : map_(std::move(map)) {}
  void OnCrossing(const ukvm::CrossingEvent& event);
  void BeginRequest();
  void EndRequest();
  const std::array<uint64_t, kLayerCount>& ns() const { return ns_; }

 private:
  Layer LayerOf(ukvm::DomainId domain);
  LayerMap map_;
  std::array<uint64_t, kLayerCount> ns_{};
  Layer current_ = kApp;
  uint64_t last_ns_ = 0;
  bool active_ = false;
};

// Counts CpuAccounting charges, forwarding to the observer it displaced
// (the E17 cycle profiler when tracing is armed).
class ChargeCounter : public ukvm::ChargeObserver {
 public:
  explicit ChargeCounter(ukvm::ChargeObserver* next) : next_(next) {}
  void OnCharge(ukvm::DomainId domain, uint64_t cycles) override {
    ++count_;
    if (next_ != nullptr) {
      next_->OnCharge(domain, cycles);
    }
  }
  uint64_t count() const { return count_; }

 private:
  ukvm::ChargeObserver* next_;
  uint64_t count_ = 0;
};

// Moves the (single-threaded) benchmark to the vCPU where a short reference
// loop currently runs fastest. On a shared host the vCPUs' speeds differ by
// tens of percent and drift as neighbours come and go; picking before every
// round keeps the run on the quietest one.
class CpuPicker {
 public:
  CpuPicker();
  ~CpuPicker();
  CpuPicker(const CpuPicker&) = delete;
  CpuPicker& operator=(const CpuPicker&) = delete;
  // Returns the reference loop's time on the chosen vCPU.
  uint64_t Pick();

 private:
  // The reference loop's time on the current vCPU.
  uint64_t Time();
  std::vector<int> cpus_;
  std::vector<uint64_t> scratch_;
  uint64_t state_ = 77;
};

// --- Stacks --------------------------------------------------------------------

// One booted stack in its default Config, optionally with every observer
// (tracer, race detector, request tracer) armed.
class Target {
 public:
  Target(StackKind kind, bool observers);
  ~Target();
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  StackKind kind() const { return kind_; }
  bool observers() const { return observers_; }
  hwsim::Machine& machine();
  hwsim::Nic& nic();
  hwsim::Disk& disk();
  minios::Os& os();
  ucheck::Auditor* auditor();
  ukvm::Err RunAsApp(const std::function<void()>& fn);
  void RouteWirePort(uint16_t port);
  // Every accounting domain of this stack, from the stacks' public accessors.
  LayerMap Layers();

 private:
  StackKind kind_;
  bool observers_;
  std::unique_ptr<ustack::NativeStack> native_;
  std::unique_ptr<ustack::UkernelStack> ukernel_;
  std::unique_ptr<ustack::VmmStack> vmm_;
};

uint64_t MemoryBytes(StackKind kind);

// --- Results ---------------------------------------------------------------------

// Deterministic totals over a fixed stretch of the stream. Two runs of one
// seed, and the traced and untraced runs, must agree on every field.
struct Counts {
  uint64_t requests = 0;
  uint64_t busy_cycles = 0;
  uint64_t idle_cycles = 0;
  std::array<uint64_t, kLayerCount> layer_cycles{};
  uint64_t charges = 0;
  uint64_t allocs = 0;
  uint64_t ledger_records = 0;
  uint64_t ipc_like = 0;
  uint64_t bytes_moved = 0;
  uint64_t uk_ipc_calls = 0;
  uint64_t uk_string_bytes = 0;
  uint64_t hypercalls = 0;
  uint64_t evtchn_sends = 0;
  uint64_t grant_ops = 0;
  uint64_t page_flips = 0;
  uint64_t syscalls = 0;
  uint64_t frames_used = 0;
  uint64_t digest = 0;  // app-visible results

  void Add(const Counts& other);
  bool operator==(const Counts& other) const = default;
  // "field a/b" for every field that differs; empty when equal.
  std::string DescribeDiff(const Counts& other) const;
};

// Host latencies in log-linear buckets, 64 per power of two: every sample
// counts, and memory does not grow with the number of samples. A quantile
// is interpolated inside its bucket, which spans at most 1/64 of its value.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // The q-quantile in microseconds; 0 when empty.
  double QuantileUs(double q) const;

 private:
  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

// A stretch of consecutive timed requests on one stack (one turn; one seed
// in lifecycle).
struct Window {
  uint64_t requests = 0;
  uint64_t ns = 0;  // thread CPU time (ThreadCpuNs) of the stretch
  LatencyHistogram latency;  // every request's host time
  std::array<uint64_t, kKindCount> kind_ns{};  // host time by request kind
  std::array<uint64_t, kKindCount> kind_requests{};
};

// Host-side measurements of one pass over one stack.
struct HostStats {
  std::vector<Window> windows;  // timed requests, one per turn, in order
  std::vector<double> boot_ms, teardown_ms, checkpoint_ms;
  // Traced passes only, over the requests after the prefix:
  LatencyHistogram syscall_latency;
  uint64_t event_loop_ns = 0;
  std::array<uint64_t, kLayerCount> layer_ns{};
  std::array<uint64_t, kSpanNameCount> self_ns{};
  std::array<uint64_t, kSpanNameCount> span_count{};
  uint64_t traced_requests = 0;  // requests run inside request spans
};

struct StackResult {
  Counts counts;  // over the deterministic prefix
  HostStats host;
  std::vector<uint64_t> digests;  // per request, warm-up + prefix (lifecycle: every program)
  std::vector<uint64_t> failed_ids;
  uint64_t attempted = 0;
};

struct RunOptions {
  Workload workload = Workload::kSplitIo;
  uint64_t seed = 1;
  double seconds = 1.0;    // timed budget for this pass (all stacks)
  bool traced = false;
  uint64_t warmup = 0;     // requests before the prefix (steady workloads)
  uint64_t prefix = 0;     // deterministic requests (lifecycle: programs)
  uint64_t max_timed = ~0ull;  // cap on timed requests per stack
  // Mutation self-tests: corrupt the file data of this request on disk /
  // corrupt the wire frames of this request.
  uint64_t corrupt_disk_request = ~0ull;
  uint64_t corrupt_wire_request = ~0ull;
  // Budget-check self-test: drop this domain from the layer map.
  bool drop_one_domain = false;
};

struct PassResult {
  std::array<StackResult, 3> stacks;
  // The reference loop's time on the vCPU picked for each round: a record
  // of how fast the host was, independent of the code under test.
  std::vector<uint64_t> reference_ns;
  std::vector<std::string> errors;  // failed checks (any makes the run fail)
  std::array<std::unique_ptr<SpanLog>, 3> spans;
};

// Runs `options.workload` on all three stacks (lifecycle: in rotation).
PassResult RunPass(const RunOptions& options);

// Splits ByDomain() deltas into layers. `total_cycles` is the change of
// CpuAccounting::total_cycles() over the same stretch, an accumulator kept
// apart from the per-domain table; all layers, idle included, must add up
// to it. False (with `error` set) on a domain the map does not know or a
// budget that does not add up.
bool LayerBudget(const std::vector<std::pair<ukvm::DomainId, uint64_t>>& before,
                 const std::vector<std::pair<ukvm::DomainId, uint64_t>>& after,
                 uint64_t total_cycles, const LayerMap& map, Counts& out, std::string& error);

// Generates and boots everything the first timed request needs, `reps`
// times; returns each repetition's thread CPU seconds.
std::vector<double> MeasureSetup(const RunOptions& options, int reps);

}  // namespace ukbench

#endif  // UKBENCH_RUNNER_H_
