// E8 — trusted-computing-base size per configuration (table).
//
// Paper §2.1: Goldberg's reliability argument assumes "the VMM is likely to
// be a very small program"; §2.2 counters that real VMM systems hang a
// super-VM (Dom0 running a legacy OS) off the critical path, which
// "re-introduces a large number of software bugs [CYC+01]". Line counts
// below are measured from this repository's own implementation files.
//
// Every source edit moves the counts, so only the orderings table is
// gated: it goes to BENCH_E8.json, and the bench exits non-zero when an
// ordering fails. The count tables go to the never-compared
// BENCH_E8_HOST.json.

#include <cstdio>

#include "src/core/tcb.h"
#include "src/experiments/table.h"
#include "src/stacks/tcb_lists.h"

namespace {

void PrintReport(const ukvm::TcbReport& report) {
  uharness::Table table(report.configuration + " — component inventory",
                        {"component", "trust class", "lines"});
  for (const auto& row : report.rows) {
    table.AddRow({row.component, ukvm::TrustClassName(row.trust), uharness::FmtInt(row.lines)});
  }
  table.AddRow({"TOTAL privileged", "", uharness::FmtInt(report.privileged_lines)});
  table.AddRow({"TOTAL critical path (priv + critical)", "",
                uharness::FmtInt(report.critical_lines)});
  table.AddRow({"TOTAL", "", uharness::FmtInt(report.total_lines)});
  table.MarkHostTime();
  table.Print();
}

}  // namespace

int main() {
  uharness::PrintHeading("E8", "how much code sits inside each trust boundary");

  const auto native = ukvm::BuildTcbReport("native monolithic OS",
                                           ustack::NativeTcbComponents());
  const auto uk = ukvm::BuildTcbReport("microkernel + user-level servers",
                                       ustack::UkernelTcbComponents());
  const auto vmm = ukvm::BuildTcbReport("VMM + Dom0 (storage in Dom0)",
                                        ustack::VmmTcbComponents(/*parallax_storage=*/false));
  const auto vmm_px = ukvm::BuildTcbReport("VMM + Dom0 + Parallax storage VM",
                                           ustack::VmmTcbComponents(/*parallax_storage=*/true));

  PrintReport(native);
  PrintReport(uk);
  PrintReport(vmm);
  PrintReport(vmm_px);

  uharness::Table summary("summary: lines inside the trust boundary",
                          {"configuration", "privileged", "critical path", "ratio vs ukernel"});
  const double base = static_cast<double>(uk.critical_lines);
  auto Row = [&](const ukvm::TcbReport& r) {
    summary.AddRow({r.configuration, uharness::FmtInt(r.privileged_lines),
                    uharness::FmtInt(r.critical_lines),
                    uharness::FmtDouble(static_cast<double>(r.critical_lines) / base) + "x"});
  };
  Row(uk);
  Row(vmm);
  Row(vmm_px);
  Row(native);
  summary.MarkHostTime();
  summary.Print();

  struct Ordering {
    const char* claim;
    bool holds;
  };
  const Ordering orderings[] = {
      {"privileged: microkernel < hypervisor", uk.privileged_lines < vmm.privileged_lines},
      {"critical path: microkernel < VMM + Parallax", uk.critical_lines < vmm_px.critical_lines},
      {"critical path: VMM + Parallax < VMM + Dom0", vmm_px.critical_lines < vmm.critical_lines},
  };
  uharness::Table gated("orderings (gated)", {"ordering", "holds"});
  bool ok = true;
  for (const Ordering& o : orderings) {
    gated.AddRow({o.claim, o.holds ? "yes" : "NO"});
    ok = ok && o.holds;
  }
  gated.Print();

  std::printf(
      "\nShape check: the microkernel keeps the smallest privileged core and critical\n"
      "path; the VMM's hypervisor alone is bigger (one mechanism per primitive), and\n"
      "pulling the legacy-OS Dom0 onto the critical path dwarfs both. Moving storage\n"
      "into a Parallax VM shrinks the VMM critical path — disaggregation works, which\n"
      "is precisely the microkernel design point the paper defends.\n");
  uharness::WriteJsonIfRequested("E8");
  if (!ok) {
    std::printf("FAIL: a trust-boundary ordering does not hold\n");
    return 1;
  }
  return 0;
}
