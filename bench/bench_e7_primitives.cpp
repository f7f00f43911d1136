// E7 — kernel primitive inventory (table).
//
// Paper §2.2: microkernel IPC serves three orthogonal roles through ONE
// primitive; "VMMs in comparison ... offer a rich variety of primitives.
// Each primitive requires a dedicated set of security mechanisms,
// resources, and kernel code." This bench enumerates both ABIs, measures
// one invocation of each mechanism, and counts the privileged lines
// implementing each ABI.
//
// The cycle tables are gated (BENCH_E7.json). Every source edit moves the
// line counts, so they go to the never-compared BENCH_E7_HOST.json.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/tcb.h"
#include "src/experiments/table.h"
#include "src/hw/machine.h"
#include "src/stacks/tcb_lists.h"
#include "src/ukernel/kernel.h"
#include "src/vmm/hypervisor.h"

namespace {

using ukvm::DomainId;
using ukvm::ThreadId;

// The privileged lines of one configuration, from E8's component lists.
uint64_t PrivilegedLines(const std::vector<ukvm::TcbComponent>& components) {
  return ukvm::BuildTcbReport("", components).privileged_lines;
}

}  // namespace

int main() {
  uharness::PrintHeading("E7", "kernel ABIs: one primitive vs a rich variety");

  // --- The microkernel ABI -----------------------------------------------------
  {
    hwsim::Machine machine(hwsim::MakeX86Platform(), 8 << 20);
    ukern::Kernel kernel(machine);

    // Minimal two-task world.
    auto MakeSide = [&](hwsim::Vaddr window, ukern::IpcHandler handler) {
      auto task = kernel.CreateTask(ThreadId::Invalid());
      auto thread = kernel.CreateThread(*task, 128, std::move(handler));
      ukern::Task* t = kernel.FindTask(*task);
      for (int i = 0; i < 4; ++i) {
        auto frame = machine.memory().AllocFrame(*task);
        const hwsim::Vaddr va = window + static_cast<uint64_t>(i) * machine.memory().page_size();
        (void)t->space.Map(va, *frame, hwsim::PtePerms{true, true});
        kernel.mapdb().AddRoot(*task, t->space.VpnOf(va), *frame);
      }
      (void)kernel.SetRecvBuffer(*thread, window, 4 * 4096);
      return *thread;
    };
    ThreadId server = MakeSide(0x10000, [](ThreadId, ukern::IpcMessage m) {
      ukern::IpcMessage r;
      if (m.has_string) {
        r.has_string = true;
        r.string = ukern::StringItem{0x10000, m.string.len};
      }
      return r;
    });
    ThreadId client = MakeSide(0x20000, nullptr);

    auto Measure = [&](auto op) {
      const uint64_t t0 = machine.Now();
      op();
      return machine.Now() - t0;
    };

    uharness::Table table(
        "microkernel: 6 syscalls, IPC is THE primitive (3 roles in one)",
        {"syscall / role", "mechanism", "cycles (one op)"});
    table.AddRow({"Ipc: control transfer", "call/reply (registers)",
                  uharness::FmtInt(Measure([&] {
                    (void)kernel.Call(client, server, ukern::IpcMessage::Short(1));
                  }))});
    table.AddRow({"Ipc: data transfer", "string item (1 KiB)", uharness::FmtInt(Measure([&] {
                    ukern::IpcMessage m = ukern::IpcMessage::Short(1);
                    m.has_string = true;
                    m.string = ukern::StringItem{0x20000, 1024};
                    (void)kernel.Call(client, server, m);
                  }))});
    table.AddRow({"Ipc: resource delegation", "map item (1 page)", uharness::FmtInt(Measure([&] {
                    ukern::IpcMessage m = ukern::IpcMessage::Short(1);
                    m.map_items.push_back(ukern::MapItem{0x20000, 0x90000, 1, true, false});
                    (void)kernel.Call(client, server, m);
                  }))});
    table.AddRow({"Unmap", "recursive revoke", uharness::FmtInt(Measure([&] {
                    (void)kernel.Unmap(*kernel.TaskOf(client), 0x20000, 1, false);
                  }))});
    table.AddRow({"ThreadControl", "create thread", uharness::FmtInt(Measure([&] {
                    (void)kernel.CreateThread(*kernel.TaskOf(client), 5, nullptr);
                  }))});
    table.AddRow({"TaskControl", "create task", uharness::FmtInt(Measure([&] {
                    (void)kernel.CreateTask(ThreadId::Invalid());
                  }))});
    table.AddRow({"IrqControl", "route irq to thread", uharness::FmtInt(Measure([&] {
                    (void)kernel.AssociateIrq(ukvm::IrqLine(3), server);
                  }))});
    table.Print();
  }

  // --- The VMM ABI ---------------------------------------------------------------
  {
    hwsim::Machine machine(hwsim::MakeX86Platform(), 8 << 20);
    uvmm::Hypervisor hv(machine);
    DomainId dom0 = *hv.CreateDomain("Dom0", 64, true);
    DomainId guest = *hv.CreateDomain("DomU", 64, false);
    (void)hv.HcSetUpcall(dom0, [](uint32_t) {});
    (void)hv.HcSetUpcall(guest, [](uint32_t) {});

    auto Measure = [&](auto op) {
      const uint64_t t0 = machine.Now();
      op();
      return machine.Now() - t0;
    };

    uharness::Table table("VMM: 12 of the " + std::to_string(uvmm::kHypercallCount) +
                              " hypercalls measured, one mechanism per concern (paper §2.2 list)",
                          {"hypercall", "paper §2.2 primitive", "cycles (one op)"});
    table.AddRow({"set_trap_table", "#1/#2/#7 exception virtualisation",
                  uharness::FmtInt(Measure([&] {
                    (void)hv.HcSetTrapTable(guest, [](hwsim::TrapFrame&) { return 0ull; },
                                            nullptr, true);
                  }))});
    table.AddRow({"mmu_update", "#5 page-table virtualisation", uharness::FmtInt(Measure([&] {
                    std::vector<uvmm::MmuUpdate> u = {{0x1000, 1, true, true}};
                    (void)hv.HcMmuUpdate(guest, u);
                  }))});
    table.AddRow({"set_segment", "#2 guest kernel/user switching", uharness::FmtInt(Measure([&] {
                    hwsim::SegmentDescriptor d;
                    d.limit = uvmm::kHoleBase;
                    (void)hv.HcSetSegment(guest, hwsim::SegmentReg::kFs, d);
                  }))});
    uint32_t unbound = 0;
    uint32_t bound = 0;
    table.AddRow({"event_channel_op (alloc+bind)", "#3 async channels",
                  uharness::FmtInt(Measure([&] {
                    unbound = *hv.HcEvtchnAllocUnbound(dom0, guest);
                    bound = *hv.HcEvtchnBind(guest, dom0, unbound);
                  }))});
    table.AddRow({"event_channel_op (send)", "#8 async event notification",
                  uharness::FmtInt(Measure([&] { (void)hv.HcEvtchnSend(guest, bound); }))});
    uint32_t gref = 0;
    table.AddRow({"grant_table_op (access+map)", "#6 resource re-allocation",
                  uharness::FmtInt(Measure([&] {
                    gref = *hv.HcGrantAccess(guest, dom0, 3, true);
                    (void)hv.HcGrantMap(dom0, guest, gref, 0xE0000000, true);
                  }))});
    table.AddRow({"grant_table_op (transfer)", "#6 page flipping", uharness::FmtInt(Measure([&] {
                    auto slot = hv.HcGrantTransferSlot(guest, dom0, 4);
                    (void)hv.HcGrantTransfer(dom0, 5, guest, *slot);
                  }))});
    table.AddRow({"physdev_op (bind irq)", "#9 virtualized interrupt controller",
                  uharness::FmtInt(Measure([&] {
                    auto port = hv.HcEvtchnAllocUnbound(dom0, dom0);
                    (void)hv.HcBindIrq(dom0, ukvm::IrqLine(4), *port);
                  }))});
    table.AddRow({"sched_op", "#4 resource allocation per VM",
                  uharness::FmtInt(Measure([&] { (void)hv.HcSchedYield(guest); }))});
    table.AddRow({"console_io", "#10 common devices", uharness::FmtInt(Measure([&] {
                    (void)hv.HcConsoleIo(guest, "x");
                  }))});
    table.AddRow({"vcpu_op (set upcall)", "#8 event delivery setup",
                  uharness::FmtInt(Measure([&] {
                    (void)hv.HcSetUpcall(guest, [](uint32_t) {});
                  }))});
    table.AddRow({"domctl (create+destroy domain)", "#4 per-VM allocation",
                  uharness::FmtInt(Measure([&] {
                    auto d = hv.CreateDomain("tmp", 8, false);
                    (void)hv.DestroyDomain(*d);
                  }))});
    table.Print();
  }

  uharness::Table loc("privileged lines implementing each ABI (from E8's component lists)",
                      {"kernel", "privileged LoC"});
  loc.AddRow({"microkernel", uharness::FmtInt(PrivilegedLines(ustack::UkernelTcbComponents()))});
  loc.AddRow({"hypervisor", uharness::FmtInt(PrivilegedLines(
                                ustack::VmmTcbComponents(/*parallax_storage=*/false)))});
  loc.MarkHostTime();
  loc.Print();

  std::printf(
      "\nShape check: %u microkernel syscalls (one of which — IPC — carries all three\n"
      "roles) against %u hypercalls, each with its own validation machinery and code,\n"
      "and a correspondingly larger privileged code base.\n",
      ukern::kSyscallCount, uvmm::kHypercallCount);
  uharness::WriteJsonIfRequested("E7");
  return 0;
}
