// The E17 observability layer: flight recorder, latency histograms, and
// cycle-attribution profiler.
//
// Everything here observes the simulation without perturbing it: no method
// in this file ever charges simulated cycles, so a run with tracing on is
// cycle-for-cycle identical to the same run with tracing off (proven by
// bench_observer_matrix). The only cost of tracing is host wall-clock.
//
// Three instruments share one Tracer per machine:
//   - Flight recorder: a fixed-capacity ring of typed TraceEvents. Spans
//     are recorded as *completed* intervals (begin time + duration) when
//     they close, so a wrapped ring never holds a begin without its end.
//   - Latency histograms: named LogHistograms fed per-mechanism crossing
//     latency (automatically, from the ledger's trace stream) and
//     end-to-end request latency (from the split drivers).
//   - Cycle profiler: a ChargeObserver that tags every CpuAccounting
//     charge with the interned attribution path pushed by the code that
//     is running (hypercall nr, IPC op, softirq, ...), and dumps
//     collapsed stacks for flamegraph.pl.
//
// Determinism: all recorded content derives from simulated time, interned
// ids, and event order; exports sort any unordered containers. Same seed +
// same Config => byte-identical dumps.

#ifndef UKVM_SRC_CORE_TRACE_H_
#define UKVM_SRC_CORE_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/ids.h"
#include "src/core/metrics.h"

namespace ukvm {

struct CrossingEvent;
class CrossingLedger;

// Per-stack tracing knobs. Default-off: stacks built with an all-default
// Config run with zero instrumentation active.
struct TraceConfig {
  bool enabled = false;
  // Flight-recorder capacity in events; oldest events are overwritten.
  size_t ring_capacity = 1u << 16;
};

enum class TraceEventType : uint8_t {
  kSpan = 0,  // completed interval: time = begin, dur = length
  kInstant,   // point event (IRQ, sched switch, fault firing, ...)
  kCrossing,  // one ledger crossing (a = from-domain, b = bytes)
};

struct TraceEvent {
  TraceEventType type = TraceEventType::kInstant;
  uint32_t name = 0;  // interned via Tracer::InternName
  DomainId domain;    // the domain the event is attributed to
  uint64_t time = 0;  // simulated cycles
  uint64_t dur = 0;   // span length (kSpan) or crossing cycles (kCrossing)
  uint64_t a = 0;     // event-specific payload
  uint64_t b = 0;
  uint64_t seq = 0;   // global ordinal; survives ring wrap
};

// Cycle-attribution profiler. Instrumented code pushes interned frames
// (via ProfScope) around the work it charges; every CpuAccounting::Charge
// is then attributed to (domain, active path). Paths are interned in a
// trie so the hot path is one map lookup + one counter bump.
class CycleProfiler : public ChargeObserver {
 public:
  CycleProfiler();

  uint32_t InternFrame(std::string_view name);
  const std::string& FrameName(uint32_t id) const { return frame_names_.at(id); }

  void Push(uint32_t frame);
  void Pop();
  size_t depth() const { return stack_.size(); }

  void OnCharge(DomainId domain, uint64_t cycles) override;

  uint64_t total_cycles() const { return total_cycles_; }

  // Visits every (domain, path, cycles) attribution, path outermost-first
  // (empty for cycles charged with no frames pushed). Deterministic order:
  // sorted by (domain, trie node).
  void ForEachAttribution(
      const std::function<void(DomainId, const std::vector<uint32_t>&, uint64_t)>& fn) const;

  void Reset();

 private:
  struct Node {
    uint32_t parent = 0;  // index into nodes_; node 0 is the root
    uint32_t frame = 0;
  };

  std::vector<std::string> frame_names_;
  std::unordered_map<std::string, uint32_t> frames_by_name_;
  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, uint32_t> children_;  // (parent<<32)|frame -> node
  std::vector<uint32_t> stack_;                      // open frames as trie nodes
  uint32_t current_ = 0;                             // trie node of the full path
  std::unordered_map<uint64_t, uint64_t> cycles_;    // (domain<<32)|node -> cycles
  uint64_t total_cycles_ = 0;
};

class Tracer {
 public:
  Tracer();

  // Arms the instruments. Clears any previously recorded events/attributions
  // and sizes the ring per `config`. (Interned names survive: instrumented
  // code caches ids at construction time.)
  void Enable(const TraceConfig& config);
  // Stops recording; already-captured data stays readable for export.
  void Disable();
  bool enabled() const { return enabled_; }

  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }

  // --- Names and domains ------------------------------------------------------

  // Interns an event/span name. Id 0 is reserved (the empty name), so
  // instrumentation sites can use 0 as an "not yet interned" sentinel.
  uint32_t InternName(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_.at(id); }

  // Display names for domains in exports ("Dom0", "sigma0", ...).
  void RegisterDomain(DomainId domain, std::string_view name);
  // Registered name, or "invalid" / "dom<N>" fallbacks.
  std::string DomainName(DomainId domain) const;
  // Sorted by domain id — export iteration order.
  const std::map<uint32_t, std::string>& domain_names() const { return domain_names_; }

  // --- Flight recorder --------------------------------------------------------

  // Opens a span; returns a token for EndSpan. No-op (returns 0) while
  // disabled. Spans nest LIFO; closing out of order counts a mismatch and
  // discards the intervening opens.
  uint64_t BeginSpan(uint32_t name, DomainId domain);
  void EndSpan(uint64_t token);

  void Instant(uint32_t name, DomainId domain, uint64_t a = 0, uint64_t b = 0);

  // Ledger sink: records a kCrossing event and feeds the per-mechanism
  // latency histogram "xing.<mechanism>".
  void OnCrossing(const CrossingEvent& event, const CrossingLedger& ledger);

  // Oldest-first walk of the retained window.
  void ForEachEvent(const std::function<void(const TraceEvent&)>& fn) const;
  uint64_t events_recorded() const { return events_recorded_; }
  uint64_t events_dropped() const;
  size_t ring_capacity() const { return ring_.size(); }
  uint64_t span_mismatches() const { return span_mismatches_; }
  size_t open_spans() const { return open_spans_.size(); }

  // --- Latency histograms -----------------------------------------------------

  uint32_t InternHistogram(std::string_view name);
  void RecordLatency(uint32_t id, uint64_t value) {
    if (enabled_) {
      histograms_[id].Record(value);
    }
  }
  const LogHistogram& Histogram(uint32_t id) const { return histograms_.at(id); }
  const std::string& HistogramName(uint32_t id) const { return histogram_names_.at(id); }
  // Name-sorted walk — export iteration order.
  void ForEachHistogram(
      const std::function<void(const std::string&, const LogHistogram&)>& fn) const;

  CycleProfiler& profiler() { return profiler_; }
  const CycleProfiler& profiler() const { return profiler_; }

 private:
  void Emit(TraceEvent event);

  struct OpenSpan {
    uint64_t token = 0;
    uint32_t name = 0;
    DomainId domain;
    uint64_t start = 0;
  };

  bool enabled_ = false;
  std::function<uint64_t()> now_;

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::map<uint32_t, std::string> domain_names_;

  std::vector<TraceEvent> ring_;
  uint64_t events_recorded_ = 0;
  std::vector<OpenSpan> open_spans_;
  uint64_t next_span_token_ = 1;
  uint64_t span_mismatches_ = 0;

  std::vector<std::string> histogram_names_;
  std::unordered_map<std::string, uint32_t> histograms_by_name_;
  std::vector<LogHistogram> histograms_;

  // Per-mechanism caches for OnCrossing (indexed by ledger mechanism id;
  // name 0 / kNoHistogram mean "not yet cached").
  static constexpr uint32_t kNoHistogram = 0xffffffffu;
  std::vector<uint32_t> mech_name_ids_;
  std::vector<uint32_t> mech_histogram_ids_;

  CycleProfiler profiler_;
};

// RAII span. Safe to construct while tracing is disabled (no-op), and to
// destroy after tracing was disabled mid-span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, uint32_t name, DomainId domain) : tracer_(tracer) {
    if (tracer_.enabled()) {
      token_ = tracer_.BeginSpan(name, domain);
    }
  }
  ~SpanScope() {
    if (token_ != 0) {
      tracer_.EndSpan(token_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  uint64_t token_ = 0;
};

// RAII profiler frame.
class ProfScope {
 public:
  ProfScope(Tracer& tracer, uint32_t frame) : tracer_(tracer) {
    if (tracer_.enabled()) {
      tracer_.profiler().Push(frame);
      pushed_ = true;
    }
  }
  ~ProfScope() {
    if (pushed_) {
      tracer_.profiler().Pop();
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Tracer& tracer_;
  bool pushed_ = false;
};

}  // namespace ukvm

#endif  // UKVM_SRC_CORE_TRACE_H_
