#include "src/stacks/vmm_stack.h"

#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "src/core/log.h"

namespace ustack {

using ukvm::Err;

VmmStack::VmmStack(Config config)
    : config_(std::move(config)),
      machine_(config_.platform, config_.memory_bytes, config_.num_vcpus),
      nic_(machine_, ukvm::IrqLine(kNicIrq), hwsim::Nic::Config{}),
      disk_(machine_, ukvm::IrqLine(kDiskIrq), hwsim::Disk::Config{}) {
  ArmTracers(machine_, config_);
  if (config_.faults.any_enabled()) {
    ArmFaults(config_.faults);
  }
  hv_ = std::make_unique<uvmm::Hypervisor>(machine_);
  machine_.tracer().RegisterDomain(hv_->vmm_domain(), "xen");

  // --- Dom0: the privileged driver domain -----------------------------------
  auto dom0 = hv_->CreateDomain("Dom0", kDom0Pages, /*privileged=*/true);
  assert(dom0.ok());
  dom0_ = *dom0;
  machine_.tracer().RegisterDomain(dom0_, "Dom0");
  dom0_mux_ = std::make_unique<PortMux>();
  Err err = hv_->HcSetUpcall(dom0_, dom0_mux_->AsUpcall());
  assert(err == Err::kNone);

  // The NIC driver + netback live in Dom0, or in a dedicated driver domain
  // when disaggregated (the Xen "driver domain" arrangement — structurally
  // the microkernel's user-level driver server).
  err = StartNetBackend("NetDriverVM");
  assert(err == Err::kNone);
  // --- Storage backend: Dom0 or a Parallax-style storage VM ------------------
  err = StartStorageBackend("ParallaxVM");
  assert(err == Err::kNone);
  (void)err;

  // Interrupts must be live before guests boot: their filesystem formatting
  // already goes through blkfront/blkback and the disk's completion IRQ.
  machine_.cpu().SetInterruptsEnabled(true);

  // --- Guests -----------------------------------------------------------------
  for (uint32_t i = 0; i < config_.num_guests; ++i) {
    guests_.push_back(MakeGuest("DomU" + std::to_string(i + 1)));
  }

  auditor_ = MakeAuditor(machine_, config_);
  if (auditor_) {
    auditor_->AttachVmm(*hv_);
  }
}

Err VmmStack::StartNetBackend(const std::string& domain_name) {
  if (config_.net_driver_domain) {
    auto nd = hv_->CreateDomain(domain_name, kServiceVmPages, /*privileged=*/true);
    if (!nd.ok()) {
      return nd.error();
    }
    net_dom_ = *nd;
    machine_.tracer().RegisterDomain(net_dom_, domain_name);
    net_mux_ = std::make_unique<PortMux>();
    UKVM_TRY(hv_->HcSetUpcall(net_dom_, net_mux_->AsUpcall()));
  } else if (hv_->DomainAlive(dom0_)) {
    net_dom_ = dom0_;
  } else {
    return Err::kDead;  // Dom0-hosted networking cannot outlive Dom0
  }
  PortMux& net_mux = config_.net_driver_domain ? *net_mux_ : *dom0_mux_;
  const std::vector<hwsim::Frame>& p2m = hv_->FindDomain(net_dom_)->p2m;
  nic_driver_ = std::make_unique<udrv::NicDriver>(
      machine_, nic_, std::vector<hwsim::Frame>(p2m.begin(), p2m.begin() + 64));
  nic_driver_->SetRetryPolicy(config_.nic_retry);
  netback_ = std::make_unique<NetBack>(machine_, *hv_, net_dom_, *nic_driver_, config_.rx_mode,
                                       net_mux, net_routes_);
  netback_->SetDegradePolicy(config_.degrade);
  nic_driver_->SetRxCallback(
      [this](hwsim::Frame frame, uint32_t len) { netback_->OnPacketReceived(frame, len); });
  if (config_.io_batch > 1) {
    // Batched datapath: NAPI-style polled drains on the NIC driver, with the
    // netback's flush as the per-round batch boundary (deferred-repost mode).
    // Poll rounds are timer events; re-enter the driver domain's kernel
    // context so their cycles are charged like softirq work.
    netback_->SetRxBatch(config_.io_batch);
    nic_driver_->SetBatchDrainHook([this] { netback_->FlushRx(); });
    nic_driver_->SetDeferredContext([this](const std::function<void()>& fn) {
      (void)hv_->RunAsDomainKernel(net_dom_, fn);
    });
    nic_driver_->SetInterruptMitigation(true);
  }
  if (config_.persistent_grants) {
    netback_->SetPersistentGrants(true);
  }
  // Route the NIC's hardware interrupt into the driver domain as a virtual IRQ.
  auto nic_port = hv_->HcEvtchnAllocUnbound(net_dom_, net_dom_);
  if (!nic_port.ok()) {
    return nic_port.error();
  }
  nic_irq_port_ = *nic_port;
  net_mux.Route(nic_irq_port_, [this] { nic_driver_->OnInterrupt(); });
  UKVM_TRY(hv_->HcBindIrq(net_dom_, nic_.line(), nic_irq_port_));
  // A restart's frontends may now rebuild (no guest exists yet at boot).
  ForEachLiveGuest([](Guest& g) { g.netfront->xenbus().OnReclaimed(); });
  return Err::kNone;
}

Err VmmStack::StartStorageBackend(const std::string& domain_name) {
  if (config_.parallax_storage) {
    auto sd = hv_->CreateDomain(domain_name, kServiceVmPages, /*privileged=*/true);
    if (!sd.ok()) {
      return sd.error();
    }
    storage_dom_ = *sd;
    machine_.tracer().RegisterDomain(storage_dom_, domain_name);
    storage_mux_ = std::make_unique<PortMux>();
    UKVM_TRY(hv_->HcSetUpcall(storage_dom_, storage_mux_->AsUpcall()));
  } else if (hv_->DomainAlive(dom0_)) {
    storage_dom_ = dom0_;
  } else {
    return Err::kDead;  // Dom0-hosted storage cannot outlive Dom0
  }
  PortMux& storage_mux = config_.parallax_storage ? *storage_mux_ : *dom0_mux_;
  disk_driver_ = std::make_unique<udrv::DiskDriver>(machine_, disk_);
  disk_driver_->SetRetryPolicy(config_.disk_retry);
  blkback_ = std::make_unique<BlkBack>(machine_, *hv_, storage_dom_, *disk_driver_,
                                       storage_mux, blk_store_);
  blkback_->SetDegradePolicy(config_.degrade);
  if (config_.persistent_grants) {
    blkback_->SetPersistentGrants(true);
  }
  // A restart's frontends may now rebuild (no guest exists yet at boot).
  ForEachLiveGuest([](Guest& g) { g.blkfront->xenbus().OnReclaimed(); });
  auto disk_port = hv_->HcEvtchnAllocUnbound(storage_dom_, storage_dom_);
  if (!disk_port.ok()) {
    return disk_port.error();
  }
  disk_irq_port_ = *disk_port;
  storage_mux.Route(disk_irq_port_, [this] { disk_driver_->OnInterrupt(); });
  return hv_->HcBindIrq(storage_dom_, disk_.line(), disk_irq_port_);
}

void VmmStack::ArmFaults(const hwsim::FaultPlan& plan) {
  fault_injector_ = std::make_unique<hwsim::FaultInjector>(machine_, plan);
  nic_.SetFaultInjector(fault_injector_.get());
  disk_.SetFaultInjector(fault_injector_.get());
}

std::unique_ptr<VmmStack::Guest> VmmStack::MakeGuest(const std::string& name) {
  auto g = std::make_unique<Guest>();
  auto dom = hv_->CreateDomain(name, kGuestPages, /*privileged=*/false);
  assert(dom.ok());
  g->domain = *dom;
  machine_.tracer().RegisterDomain(g->domain, name);
  g->mux = std::make_unique<PortMux>();
  Err err = hv_->HcSetUpcall(g->domain, g->mux->AsUpcall());
  assert(err == Err::kNone);

  // Dedicated pfn pools at the top of the guest's pseudo-physical memory.
  std::vector<uvmm::Pfn> net_pool;
  std::vector<uvmm::Pfn> blk_pool;
  for (uvmm::Pfn pfn = kGuestPages - 64; pfn < kGuestPages - 8; ++pfn) {
    net_pool.push_back(pfn);
  }
  for (uvmm::Pfn pfn = kGuestPages - 8; pfn < kGuestPages; ++pfn) {
    blk_pool.push_back(pfn);
  }

  // Frontends take the rx mode, io batch and grant mode from their backend
  // at Connect.
  g->netfront = std::make_unique<NetFront>(machine_, *hv_, g->domain, net_pool, *g->mux);
  err = g->netfront->Connect(*netback_);
  assert(err == Err::kNone);
  g->blkfront = std::make_unique<BlkFront>(machine_, *hv_, g->domain, blk_pool, *g->mux);
  // Backend death reaches the guest as a kDomainDead upcall ("xenbus watch
  // fired"); each frontend decides whether the corpse was its peer.
  Guest* raw = g.get();
  err = hv_->HcSetDomainDeadHandler(g->domain, [raw](ukvm::DomainId dead) {
    raw->netfront->OnBackendDead(dead);
    raw->blkfront->OnBackendDead(dead);
  });
  assert(err == Err::kNone);
  err = g->blkfront->Connect(*blkback_);
  assert(err == Err::kNone);
  (void)err;

  g->port = std::make_unique<minios::VmmPort>(machine_, *hv_, g->domain, g->netfront.get(),
                                              g->blkfront.get(), config_.request_fast_syscall);
  g->os = std::make_unique<minios::Os>(machine_, *g->port, name);
  ukvm::ProfScope boot_frame(machine_.tracer(),
                             machine_.tracer().profiler().InternFrame("guest.boot"));
  const Err boot = g->os->Boot(/*format_disk=*/true);
  g->booted = boot == Err::kNone;
  if (!g->booted) {
    UKVM_WARN("vmm stack: guest %s failed to boot: %s", name.c_str(), ukvm::ErrName(boot));
  }
  return g;
}

Err VmmStack::RunAsApp(size_t i, const std::function<void()>& fn) {
  ukvm::ProfScope app_frame(machine_.tracer(),
                            machine_.tracer().profiler().InternFrame("guest.app"));
  return hv_->RunGuestUser(guest(i).domain, fn);
}

void VmmStack::RouteWirePort(uint16_t wire_port, size_t i) {
  net_routes_.Route(wire_port, guest(i).domain);
}

void VmmStack::ForEachLiveGuest(const std::function<void(Guest&)>& fn) {
  for (auto& g : guests_) {
    if (hv_->DomainAlive(g->domain)) {
      fn(*g);
    }
  }
}

Err VmmStack::KillStorage() {
  if (config_.parallax_storage) {
    return hv_->DestroyDomain(storage_dom_);
  }
  // Inside Dom0 the storage service is only the blkback: it dies and Dom0
  // lives on. Its disk DMA targets are guest pages, which outlive it, so
  // the restart quiesces the disk.
  if (!hv_->DomainAlive(dom0_) || !blkback_->alive()) {
    return Err::kDead;
  }
  blkback_->Kill();
  ForEachLiveGuest([this](Guest& g) { g.blkfront->OnBackendDead(storage_dom_); });
  return Err::kNone;
}

Err VmmStack::KillNetService() {
  if (config_.net_driver_domain) {
    return hv_->DestroyDomain(net_dom_);
  }
  if (!hv_->DomainAlive(dom0_) || !netback_->alive()) {
    return Err::kDead;
  }
  netback_->Kill();
  ForEachLiveGuest([this](Guest& g) { g.netfront->OnBackendDead(net_dom_); });
  return Err::kNone;
}

Err VmmStack::KillDom0() { return hv_->DestroyDomain(dom0_); }

Err VmmStack::KillGuest(size_t i) { return hv_->DestroyDomain(guest(i).domain); }

Err VmmStack::RestartStorage() {
  (void)KillStorage();  // a no-op once the service is dead
  ForEachLiveGuest([](Guest& g) { g.blkfront->xenbus().OnDetected(); });
  // Quiesce the disk's completion queue so no in-flight DMA queued by the
  // dead backend lands after teardown, then close the disk's IRQ port
  // (refused uncharged once its domain is dead).
  machine_.counters().AddNamed("recovery.disk.dma_cancelled", disk_.CancelPending());
  (void)hv_->HcEvtchnClose(storage_dom_, disk_irq_port_);
  // The store outlives the backend: the replacement hands every guest its
  // old slice and suppresses replayed writes that already landed.
  UKVM_TRY(StartStorageBackend("ParallaxVM-2"));
  for (auto& g : guests_) {
    if (hv_->DomainAlive(g->domain)) {
      UKVM_TRY(g->blkfront->Connect(*blkback_));
    }
  }
  return Err::kNone;
}

Err VmmStack::RestartNetService() {
  (void)KillNetService();  // a no-op once the service is dead
  ForEachLiveGuest([](Guest& g) { g.netfront->xenbus().OnDetected(); });
  // Quiesce: forget posted rx buffers (a late arrival must not DMA into
  // pages the dead driver posted) and orphan in-flight completions; then
  // close the NIC's IRQ port the same way.
  machine_.counters().AddNamed("recovery.nic.rx_forgotten", nic_.CancelPosted());
  (void)hv_->HcEvtchnClose(net_dom_, nic_irq_port_);
  UKVM_TRY(StartNetBackend("NetDriverVM-2"));
  for (auto& g : guests_) {
    if (hv_->DomainAlive(g->domain)) {
      UKVM_TRY(g->netfront->Connect(*netback_));
    }
  }
  return Err::kNone;
}

// --- Health probes ---------------------------------------------------------------

Err VmmStack::ProbeStorageService() {
  for (auto& g : guests_) {
    if (!hv_->DomainAlive(g->domain)) {
      continue;
    }
    // One real 1-block read through the split-driver ring — the same
    // round-trip any guest file I/O takes.
    std::vector<uint8_t> buf(g->blkfront->block_size());
    return g->blkfront->Read(0, 1, buf);
  }
  return Err::kDead;  // no live guest left to probe through
}

Err VmmStack::ProbeNetService() {
  for (auto& g : guests_) {
    if (!hv_->DomainAlive(g->domain)) {
      continue;
    }
    const std::array<uint8_t, 32> probe{};
    return g->netfront->Send(probe);
  }
  return Err::kDead;
}

}  // namespace ustack
