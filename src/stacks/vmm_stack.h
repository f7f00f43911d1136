// The complete VMM system: Xen-style hypervisor, a privileged Dom0 hosting
// the legacy drivers and the netback, a storage backend (inside Dom0 or in
// a separate Parallax-style storage VM), and paravirtualized MiniOS guests
// reached via split drivers.

#ifndef UKVM_SRC_STACKS_VMM_STACK_H_
#define UKVM_SRC_STACKS_VMM_STACK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/check/auditor.h"
#include "src/drivers/disk_driver.h"
#include "src/drivers/nic_driver.h"
#include "src/hw/disk.h"
#include "src/hw/fault_injector.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/os/kernel.h"
#include "src/os/net_protocol.h"
#include "src/os/ports/vmm_port.h"
#include "src/stacks/blksplit.h"
#include "src/stacks/netsplit.h"
#include "src/stacks/port_mux.h"
#include "src/stacks/stack_config.h"
#include "src/vmm/hypervisor.h"

namespace ustack {

class VmmStack {
 public:
  struct Config : ServiceStackConfig {
    RxMode rx_mode = RxMode::kPageFlip;
    bool parallax_storage = false;   // blkback in a separate storage VM
    bool net_driver_domain = false;  // NIC driver + netback in a separate
                                     // driver domain instead of Dom0
    bool request_fast_syscall = true;
    // E16 batching knobs — both default off, so the unbatched datapath (and
    // every E1–E15 number measured over it) is untouched.
    //   io_batch > 1: netback stages rx packets and flushes them through one
    //   multicall per burst; the NIC driver switches to NAPI-style polled
    //   drains (masked IRQ) with NetBack::FlushRx as the batch boundary; the
    //   frontends drain and re-advertise rings in batches of this size.
    uint32_t io_batch = 1;
    //   persistent_grants: both ends of the net and blk split drivers keep
    //   grants/mappings alive across packets (grant recycling).
    bool persistent_grants = false;
  };

  // Pseudo-physical pages of each guest domain.
  static constexpr uint64_t kGuestPages = 1024;

  struct Guest {
    ukvm::DomainId domain;
    std::unique_ptr<PortMux> mux;
    std::unique_ptr<NetFront> netfront;
    std::unique_ptr<BlkFront> blkfront;
    std::unique_ptr<minios::VmmPort> port;
    std::unique_ptr<minios::Os> os;
    bool booted = false;
  };

  explicit VmmStack(Config config);
  VmmStack() : VmmStack(Config{}) {}

  hwsim::Machine& machine() { return machine_; }
  uvmm::Hypervisor& hv() { return *hv_; }
  hwsim::Nic& nic() { return nic_; }
  hwsim::Disk& disk() { return disk_; }
  ukvm::DomainId dom0() const { return dom0_; }
  ukvm::DomainId storage_domain() const { return storage_dom_; }
  // The domain hosting the NIC driver + netback (== dom0 unless
  // net_driver_domain).
  ukvm::DomainId net_domain() const { return net_dom_; }
  NetBack& netback() { return *netback_; }
  BlkBack& blkback() { return *blkback_; }
  // The NIC driver (benches tune its poll interval to the offered rate).
  udrv::NicDriver& nic_driver() { return *nic_driver_; }
  // The isolation auditor; nullptr when the config disabled it.
  ucheck::Auditor* auditor() { return auditor_.get(); }

  size_t num_guests() const { return guests_.size(); }
  Guest& guest(size_t i) { return *guests_.at(i); }
  minios::Os& guest_os(size_t i) { return *guests_.at(i)->os; }
  minios::VmmPort& guest_port(size_t i) { return *guests_.at(i)->port; }

  // Runs `fn` as guest `i`'s application (guest-user context).
  ukvm::Err RunAsApp(size_t i, const std::function<void()>& fn);

  // Routes inbound wire traffic for `wire_port` to guest `i` through the
  // stack-owned routing table, which survives netback restarts. Packets
  // for a dead guest's port are dropped.
  void RouteWirePort(uint16_t wire_port, size_t i);

  // Guest `i`'s storage client, reached the same way on both stacks: its
  // block device (the blkfront), write journal and xenbus connection.
  minios::BlockDevice& guest_block(size_t i) { return *guest(i).blkfront; }
  const minios::BlkJournal& guest_journal(size_t i) { return guest(i).blkfront->journal(); }
  XenbusConn& guest_blk_conn(size_t i) { return guest(i).blkfront->xenbus(); }

  // --- Service lifecycle (E5, E14, E15, E19) ----------------------------------
  //
  // The same verbs as UkernelStack's; here the storage service is the
  // Parallax VM or the blkback alone, and the net service the net driver
  // VM or the netback alone.
  //
  // Kill is the only death edge; every Restart* below starts with it. A
  // service VM dies with its domain (the hypervisor reclaims its grants,
  // mappings and ports and upcalls the guests); a backend inside Dom0 dies
  // in place (its Kill releases the same by hand, then each live frontend
  // runs OnBackendDead). In-flight requests wake kDead. kBadHandle or kDead
  // once the service is dead.
  ukvm::Err KillStorage();
  ukvm::Err KillNetService();
  ukvm::Err KillDom0();
  ukvm::Err KillGuest(size_t i);

  // Domain death force-revokes the corpse's grants and event channels and
  // upcalls the surviving guests (kDomainDead); frontends journal writes
  // and replay them (same ids) over a xenbus-style reconnect, and the
  // stack-owned BlkStore keeps every guest's slice and makes block writes
  // exactly-once across backend restarts (E19).
  //
  // Both restarts share one shape: Kill (a no-op once the service is
  // dead), quiesce the device whose DMA targets died with the instance and
  // close its IRQ port, boot a replacement backend (a fresh VM when
  // disaggregated; inside Dom0 only while Dom0 lives), and Connect each
  // live guest's frontend again. Storage cancels the disk's in-flight
  // requests and each blkfront replays its journal (disk contents
  // survive); net forgets the NIC's posted rx buffers and each netfront
  // posts its rx window again (the stack-owned wire routes need no replay).
  ukvm::Err RestartStorage();
  ukvm::Err RestartNetService();

  // The stack-owned slice table and exactly-once write log (survives
  // backend restarts).
  const minios::BlkStore& blk_store() const { return blk_store_; }

  // Health probes (service watchdog): one request through the first live
  // guest's ordinary frontend, the same ring round-trip any application
  // I/O takes. kNone means the backend answered.
  ukvm::Err ProbeStorageService();
  ukvm::Err ProbeNetService();

  // Attaches (or replaces) a seeded fault injector on both devices. Chaos
  // benches boot the stack clean and arm the plan once steady state holds.
  void ArmFaults(const hwsim::FaultPlan& plan);
  hwsim::FaultInjector* fault_injector() { return fault_injector_.get(); }

 private:
  static constexpr uint32_t kNicIrq = 5;
  static constexpr uint32_t kDiskIrq = 6;
  // Pseudo-physical pages of Dom0 and of each disaggregated service VM.
  static constexpr uint64_t kDom0Pages = 2048;
  static constexpr uint64_t kServiceVmPages = 1024;

  std::unique_ptr<Guest> MakeGuest(const std::string& name);
  void ForEachLiveGuest(const std::function<void(Guest&)>& fn);
  // The one construction path for each backend, shared by boot and the
  // Restart* paths: the hosting domain (a fresh VM named `domain_name` when
  // disaggregated, else the live Dom0), its driver and backend, the device
  // IRQ routed in as a virtual IRQ, and each waiting frontend's xenbus
  // machine advanced to reclaimed (no guest exists yet at boot).
  ukvm::Err StartNetBackend(const std::string& domain_name);
  ukvm::Err StartStorageBackend(const std::string& domain_name);

  const Config config_;
  hwsim::Machine machine_;
  hwsim::Nic nic_;
  hwsim::Disk disk_;
  std::unique_ptr<hwsim::FaultInjector> fault_injector_;
  std::unique_ptr<uvmm::Hypervisor> hv_;

  ukvm::DomainId dom0_;
  ukvm::DomainId storage_dom_;  // == dom0_ unless parallax_storage
  ukvm::DomainId net_dom_;      // == dom0_ unless net_driver_domain
  std::unique_ptr<PortMux> dom0_mux_;
  std::unique_ptr<PortMux> storage_mux_;
  std::unique_ptr<PortMux> net_mux_;
  std::unique_ptr<udrv::NicDriver> nic_driver_;
  std::unique_ptr<udrv::DiskDriver> disk_driver_;
  uint32_t nic_irq_port_ = 0;  // in net_dom_
  uint32_t disk_irq_port_ = 0;  // in storage_dom_
  // Outlive every backend that uses them.
  minios::BlkStore blk_store_{kSliceBlocks, disk_.config().capacity_blocks};
  minios::NetRoutes net_routes_;
  std::unique_ptr<NetBack> netback_;
  std::unique_ptr<BlkBack> blkback_;
  std::vector<std::unique_ptr<Guest>> guests_;
  // Declared last: destroyed first, emptying the machine's observer slot
  // while the hypervisor and machine are still alive.
  std::unique_ptr<ucheck::Auditor> auditor_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_VMM_STACK_H_
