// E2 — system-call path comparison (table).
//
// Paper §3.2: "each guest-application exception and system call causes a
// trap into the VMM, which then invokes corresponding functionality in the
// guest OS. This is nothing but an IPC operation." Xen's trap-gate shortcut
// avoids the VMM — until glibc loads a full-range segment and the shortcut
// is revoked. This bench measures a null system call on every path.

#include <cstdio>

#include "src/experiments/table.h"
#include "src/stacks/native_stack.h"
#include "src/stacks/ukernel_stack.h"
#include "src/stacks/vmm_stack.h"

namespace {

constexpr int kWarmup = 16;
constexpr int kIters = 500;

template <typename Fn>
uint64_t MeasurePerOp(hwsim::Machine& machine, Fn op) {
  for (int i = 0; i < kWarmup; ++i) {
    op();
  }
  const uint64_t t0 = machine.Now();
  for (int i = 0; i < kIters; ++i) {
    op();
  }
  return (machine.Now() - t0) / kIters;
}

}  // namespace

int main() {
  uharness::PrintHeading("E2", "null system call latency by entry path");

  uharness::Table table("simulated cycles per null syscall",
                        {"path", "cycles", "VMM entries per syscall", "relative to native"});

  // 1. Native: one trap into the kernel.
  uint64_t native_cost = 0;
  {
    ustack::NativeStack stack;
    auto pid = stack.os().Spawn("bench");
    native_cost = MeasurePerOp(stack.machine(), [&] { (void)stack.os().Null(*pid); });
    table.AddRow({"native trap", uharness::FmtInt(native_cost), "0", "1.00x"});
  }

  auto rel = [&](uint64_t cycles) {
    return uharness::FmtDouble(static_cast<double>(cycles) / static_cast<double>(native_cost)) +
           "x";
  };

  // 2. VMM with the fast trap gate armed.
  {
    ustack::VmmStack stack;
    auto pid = stack.guest_os(0).Spawn("bench");
    uint64_t cost = 0;
    stack.RunAsApp(0, [&] {
      cost = MeasurePerOp(stack.machine(), [&] { (void)stack.guest_os(0).Null(*pid); });
    });
    table.AddRow({"vmm fast trap gate", uharness::FmtInt(cost), "0", rel(cost)});
  }

  // 3. VMM after glibc-style segments: the shortcut is revoked, every
  //    syscall reflects through the hypervisor (2 VMM entries).
  {
    ustack::VmmStack stack;
    (void)stack.guest_port(0).LoadGlibcStyleSegments();
    auto pid = stack.guest_os(0).Spawn("bench");
    uint64_t cost = 0;
    stack.RunAsApp(0, [&] {
      cost = MeasurePerOp(stack.machine(), [&] { (void)stack.guest_os(0).Null(*pid); });
    });
    table.AddRow({"vmm trap-and-reflect (glibc segments)", uharness::FmtInt(cost), "2",
                  rel(cost)});
  }

  // 4. VMM that never requested the shortcut (pure trap-and-reflect).
  {
    ustack::VmmStack::Config config;
    config.request_fast_syscall = false;
    ustack::VmmStack stack(config);
    auto pid = stack.guest_os(0).Spawn("bench");
    uint64_t cost = 0;
    stack.RunAsApp(0, [&] {
      cost = MeasurePerOp(stack.machine(), [&] { (void)stack.guest_os(0).Null(*pid); });
    });
    table.AddRow({"vmm trap-and-reflect (no shortcut)", uharness::FmtInt(cost), "2", rel(cost)});
  }

  // 5. Microkernel: syscall = IPC to the OS server (L4Linux-style).
  {
    ustack::UkernelStack stack;
    auto pid = stack.guest_os(0).Spawn("bench");
    uint64_t cost = 0;
    stack.RunAsApp(0, [&] {
      cost = MeasurePerOp(stack.machine(), [&] { (void)stack.guest_os(0).Null(*pid); });
    });
    table.AddRow({"ukernel IPC redirection (L4Linux)", uharness::FmtInt(cost), "0", rel(cost)});
  }

  table.Print();
  std::printf(
      "\nShape check: fast gate ~= native << trap-and-reflect; loading one glibc-style\n"
      "segment silently degrades the VMM to the reflected path (paper section 3.2).\n"
      "The microkernel's IPC syscall sits between native and reflected cost.\n");
  uharness::WriteJsonIfRequested("E2");
  return 0;
}
