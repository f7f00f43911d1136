// E13 — proportional-share scheduling of complete operating systems.
//
// Paper §3.2 concedes that "Xen schedules complete operating systems";
// §2.2 lists "resource allocation per VM via VMM hypercall interface" as
// primitive 4. This bench runs CPU-bound guests under the credit scheduler
// with different weights and shows (a) that CPU shares during the
// competitive phase track the weights, and (b) that heavier guests finish
// equal work earlier, while the scheduler stays work-conserving.

#include <array>
#include <cstdio>
#include <memory>

#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/vmm/hypervisor.h"

namespace {

struct RunResult {
  std::array<double, 3> shares_at_first_finish{};  // competitive-phase shares
  std::array<double, 3> finish_ms{};
};

RunResult RunWeighted(const std::array<uint32_t, 3>& weights, int steps_each) {
  hwsim::Machine machine(hwsim::MakeX86Platform(), 16 << 20);
  uvmm::Hypervisor hv(machine);
  std::vector<ukvm::DomainId> doms;
  for (int i = 0; i < 3; ++i) {
    doms.push_back(*hv.CreateDomain("guest" + std::to_string(i), 16, false));
    hv.sched().SetWeight(doms.back(), weights[static_cast<size_t>(i)]);
  }

  RunResult result;
  bool first_finish_seen = false;
  uvmm::CreditRunner runner(machine, hv.sched());
  for (int i = 0; i < 3; ++i) {
    auto remaining = std::make_shared<int>(steps_each);
    runner.Add(hv.FindDomain(doms[static_cast<size_t>(i)]), [&, i, remaining] {
      machine.Charge(20 * hwsim::kCyclesPerUs);  // one quantum of guest work
      const bool done = --*remaining <= 0;
      if (done) {
        result.finish_ms[static_cast<size_t>(i)] =
            static_cast<double>(machine.Now()) / (1000.0 * hwsim::kCyclesPerUs);
        if (!first_finish_seen) {
          first_finish_seen = true;
          // Sample shares while everyone was still competing.
          double total = 0;
          std::array<uint64_t, 3> consumed{};
          for (int j = 0; j < 3; ++j) {
            consumed[static_cast<size_t>(j)] = runner.ConsumedBy(doms[static_cast<size_t>(j)]);
            total += static_cast<double>(consumed[static_cast<size_t>(j)]);
          }
          for (int j = 0; j < 3; ++j) {
            result.shares_at_first_finish[static_cast<size_t>(j)] =
                static_cast<double>(consumed[static_cast<size_t>(j)]) / total;
          }
        }
      }
      return done;
    });
  }
  runner.Run();
  return result;
}

}  // namespace

int main() {
  uharness::PrintHeading("E13", "credit scheduler: CPU shares track per-VM weights");

  uharness::Table table("three guests, 40 ms CPU work each",
                        {"weights (A:B:C)", "shares while competing (A/B/C)",
                         "expected shares", "finish times ms (A/B/C)"});

  const std::vector<std::array<uint32_t, 3>> weight_sets = {
      {256, 256, 256}, {512, 256, 256}, {512, 256, 128}, {1024, 512, 256}};

  for (const auto& weights : weight_sets) {
    RunResult r = RunWeighted(weights, /*steps_each=*/2000);
    const double wsum = weights[0] + weights[1] + weights[2];
    auto triple = [](double a, double b, double c) {
      return uharness::FmtPercent(a) + " / " + uharness::FmtPercent(b) + " / " +
             uharness::FmtPercent(c);
    };
    table.AddRow({std::to_string(weights[0]) + ":" + std::to_string(weights[1]) + ":" +
                      std::to_string(weights[2]),
                  triple(r.shares_at_first_finish[0], r.shares_at_first_finish[1],
                         r.shares_at_first_finish[2]),
                  triple(weights[0] / wsum, weights[1] / wsum, weights[2] / wsum),
                  uharness::FmtDouble(r.finish_ms[0]) + " / " +
                      uharness::FmtDouble(r.finish_ms[1]) + " / " +
                      uharness::FmtDouble(r.finish_ms[2])});
  }
  table.Print();

  std::printf(
      "\nShape check: competitive-phase shares match the weight vector; heavier\n"
      "guests finish equal work earlier; after a guest finishes, the survivors\n"
      "absorb the slack (work-conserving). Primitive 4 of section 2.2, observable.\n");
  uharness::WriteJsonIfRequested("E13");
  return 0;
}
