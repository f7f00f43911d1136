// The complete microkernel system: L4-style kernel, sigma0, user-level
// driver servers, and one or more MiniOS guests whose applications reach
// the OS server — and the OS server reaches the drivers — purely via IPC.

#ifndef UKVM_SRC_STACKS_UKERNEL_STACK_H_
#define UKVM_SRC_STACKS_UKERNEL_STACK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/hw/disk.h"
#include "src/hw/fault_injector.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/blk_protocol.h"
#include "src/os/kernel.h"
#include "src/os/net_protocol.h"
#include "src/os/ports/ukernel_port.h"
#include "src/stacks/sigma0.h"
#include "src/stacks/stack_config.h"
#include "src/stacks/uk_block_server.h"
#include "src/stacks/uk_net_server.h"
#include "src/stacks/watchdog.h"
#include "src/stacks/xenbus.h"
#include "src/ukernel/kernel.h"

namespace ustack {

class UkernelStack {
 public:
  struct Config : ServiceStackConfig {
    // E21/E23: which IPC path the kernel takes (see ukern::IpcPath).
    // Default kSlow; on a fast path the OS servers' syscall redirection
    // rides it too.
    ukern::IpcPath ipc_path = ukern::IpcPath::kSlow;
  };

  struct Guest {
    Guest(hwsim::Machine& machine, ukvm::DomainId os_dom, ukvm::DomainId app_dom)
        : os_task(os_dom), app_task(app_dom), xenbus(machine, "uk-blk", os_dom) {}

    ukvm::DomainId os_task;
    ukvm::DomainId app_task;
    ukvm::ThreadId os_thread;
    ukvm::ThreadId app_thread;
    ukvm::ThreadId net_rx_thread;
    std::unique_ptr<minios::UkernelPort> port;
    std::unique_ptr<minios::Os> os;
    // The uk-blk connection state machine (the microkernel mirror of a
    // frontend's xenbus conn).
    XenbusConn xenbus;
    bool booted = false;
  };

  explicit UkernelStack(Config config);
  UkernelStack() : UkernelStack(Config{}) {}

  hwsim::Machine& machine() { return machine_; }
  ukern::Kernel& kernel() { return *kernel_; }
  hwsim::Nic& nic() { return nic_; }
  hwsim::Disk& disk() { return disk_; }
  Sigma0& sigma0() { return *sigma0_; }
  UkNetServer& net_server() { return *net_server_; }
  UkBlockServer& block_server() { return *block_server_; }
  // The isolation auditor; nullptr when the config disabled it.
  ucheck::Auditor* auditor() { return auditor_.get(); }

  size_t num_guests() const { return guests_.size(); }
  Guest& guest(size_t i) { return *guests_.at(i); }
  minios::Os& guest_os(size_t i) { return *guests_.at(i)->os; }

  // Runs `fn` in the context of guest `i`'s application thread.
  ukvm::Err RunAsApp(size_t i, const std::function<void()>& fn);

  // Routes inbound wire traffic for `wire_port` to guest `i` through the
  // stack-owned routing table, which survives net-server restarts. Packets
  // for a dead guest's port are dropped.
  void RouteWirePort(uint16_t wire_port, size_t i);

  // Guest `i`'s storage client, reached the same way on both stacks: its
  // block device (IPC to the block server), write journal and uk-blk
  // connection.
  minios::BlockDevice& guest_block(size_t i) { return *guest(i).port->block(); }
  const minios::BlkJournal& guest_journal(size_t i) { return guest(i).port->blk_journal(); }
  XenbusConn& guest_blk_conn(size_t i) { return guest(i).xenbus; }

  // --- Service lifecycle (E5, E14, E15, E19) ----------------------------------
  //
  // The same verbs as VmmStack's; here the storage service is the block
  // server task and the net service the net server task.
  //
  // Kill is the only death edge; every Restart* below starts with it. A
  // server kill destroys the task, hands its frames back to sigma0 and
  // quiesces the device whose DMA targets (the server's staging, window
  // and pool frames) die with it: the disk's in-flight requests, or the
  // NIC's posted rx buffers. kBadHandle once the server is already dead.
  ukvm::Err KillStorage();
  ukvm::Err KillNetService();
  ukvm::Err KillGuest(size_t i);

  // Kills the server (a no-op once it is dead), starts a fresh instance and
  // re-points each live guest at it. Disk contents survive (the backing
  // store is intact), clients keep their slices (the stack-owned BlkStore
  // holds them) and the net server routes as before (the stack-owned
  // NetRoutes holds the routes). RestartStorage replays each live port's
  // write journal (same ids); the store makes the writes exactly-once and
  // each guest's uk-blk connection records the recovery phases (E19).
  ukvm::Err RestartStorage();
  ukvm::Err RestartNetService();

  // The stack-owned slice table and exactly-once write log (survives
  // server restarts).
  const minios::BlkStore& blk_store() const { return blk_store_; }

  // Health probes (service watchdog): one request through the service's
  // ordinary IPC interface, issued from a dedicated monitor task (created
  // lazily on first probe). kNone means the service answered.
  ukvm::Err ProbeStorageService();
  ukvm::Err ProbeNetService();

  // Attaches (or replaces) a seeded fault injector on both devices. Chaos
  // benches boot the stack clean and arm the plan once steady state holds.
  void ArmFaults(const hwsim::FaultPlan& plan);
  hwsim::FaultInjector* fault_injector() { return fault_injector_.get(); }

 private:
  static constexpr uint32_t kNicIrq = 5;
  static constexpr uint32_t kDiskIrq = 6;

  std::unique_ptr<Guest> MakeGuest(const std::string& name);
  bool GuestAlive(const Guest& g) const { return kernel_->TaskAlive(g.os_task); }
  // The one construction path for each server, shared by boot and the
  // Restart* paths: a fresh instance registered under `name`, hardened
  // with the config's retry and degrade policies.
  void StartNetServer(const char* name);
  void StartBlockServer(const char* name);
  ukvm::Err EnsureMonitor();

  const Config config_;
  hwsim::Machine machine_;
  hwsim::Nic nic_;
  hwsim::Disk disk_;
  std::unique_ptr<hwsim::FaultInjector> fault_injector_;
  std::unique_ptr<ukern::Kernel> kernel_;
  std::unique_ptr<Sigma0> sigma0_;
  // Outlive every server that uses them.
  minios::BlkStore blk_store_{kSliceBlocks, disk_.config().capacity_blocks};
  minios::NetRoutes net_routes_;
  std::unique_ptr<UkNetServer> net_server_;
  std::unique_ptr<UkBlockServer> block_server_;
  std::vector<std::unique_ptr<Guest>> guests_;
  ukvm::DomainId monitor_task_ = ukvm::DomainId::Invalid();
  ukvm::ThreadId monitor_thread_ = ukvm::ThreadId::Invalid();
  // Declared last: destroyed first, emptying the machine's observer slot
  // while the kernel and machine are still alive.
  std::unique_ptr<ucheck::Auditor> auditor_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_UKERNEL_STACK_H_
