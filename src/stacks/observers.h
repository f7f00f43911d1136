// The observers every stack can arm, configured and attached the same way
// on all three: the isolation auditor (src/check), its happens-before race
// detector (E20), the flight recorder / histograms / profiler (E17) and the
// causal request tracer (E22). Each observes without charging a simulated
// cycle, so any combination leaves every measured number byte-identical
// (bench_observer_matrix gates all of them at once).

#ifndef UKVM_SRC_STACKS_OBSERVERS_H_
#define UKVM_SRC_STACKS_OBSERVERS_H_

#include <memory>

#include "src/check/auditor.h"
#include "src/core/reqtrace.h"
#include "src/core/trace.h"
#include "src/hw/machine.h"

namespace ustack {

// The observer half of every stack Config.
struct ObserverConfig {
  // Constructs the isolation auditor over the stack. On by default; it
  // charges no simulated cycle, so turning it off only saves host time.
  bool audit = true;
  // Happens-before race detection over the split drivers' rings and
  // grant-shared frames, plus IPC/evtchn/IPI edge bookkeeping (constructs
  // the auditor even with `audit` off). Off by default.
  bool race_detect = false;
  // Flight recorder / histograms / profiler. Off by default.
  ukvm::TraceConfig trace;
  // Causal request tracing: per-request DAGs across IPC calls, ring slots,
  // event channels and recovery replay. Off by default.
  ukvm::ReqTraceConfig request_trace;
};

// Arms the machine-owned tracers; a stack calls this before it boots
// anything, so boot traffic is recorded too.
inline void ArmTracers(hwsim::Machine& machine, const ObserverConfig& config) {
  if (config.trace.enabled) {
    machine.EnableTracing(config.trace);
  }
  if (config.request_trace.enabled) {
    machine.EnableRequestTracing(config.request_trace);
  }
}

// The auditor for a booted stack (the caller attaches its kernel), or null
// when neither `audit` nor `race_detect` asks for one.
inline std::unique_ptr<ucheck::Auditor> MakeAuditor(hwsim::Machine& machine,
                                                    const ObserverConfig& config) {
  if (!config.audit && !config.race_detect) {
    return nullptr;
  }
  ucheck::Auditor::Options opts;
  opts.race_detect = config.race_detect;
  return std::make_unique<ucheck::Auditor>(machine, opts);
}

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_OBSERVERS_H_
