#include "src/stacks/ukernel_stack.h"

#include <cassert>
#include <utility>

#include "src/core/log.h"
#include "src/os/ports/protocols.h"

namespace ustack {

using ukvm::Err;

namespace {

// Guest-visible VA layout.
constexpr hwsim::Vaddr kAppWindowVa = 0x2000'0000ull;
constexpr hwsim::Vaddr kSrvWindowVa = 0x4000'0000ull;
constexpr hwsim::Vaddr kRxWindowVa = 0x4100'0000ull;
constexpr uint32_t kAppWindowPages = 16;
constexpr uint32_t kSrvWindowPages = 16;
constexpr uint32_t kRxWindowPages = 4;
// The watchdog's monitor task (its own protection domain, like any client).
constexpr hwsim::Vaddr kMonitorWindowVa = 0x6000'0000ull;
constexpr uint32_t kMonitorWindowPages = 4;
constexpr uint32_t kProbePayloadBytes = 32;

}  // namespace

UkernelStack::UkernelStack(Config config)
    : config_(std::move(config)),
      machine_(config_.platform, config_.memory_bytes, config_.num_vcpus),
      nic_(machine_, ukvm::IrqLine(kNicIrq), hwsim::Nic::Config{}),
      disk_(machine_, ukvm::IrqLine(kDiskIrq), hwsim::Disk::Config{}) {
  ArmTracers(machine_, config_);
  if (config_.faults.any_enabled()) {
    ArmFaults(config_.faults);
  }
  kernel_ = std::make_unique<ukern::Kernel>(machine_);
  kernel_->SetIpcPath(config_.ipc_path);
  machine_.tracer().RegisterDomain(kernel_->kernel_domain(), "l4-kernel");
  sigma0_ = std::make_unique<Sigma0>(machine_, *kernel_);
  machine_.tracer().RegisterDomain(sigma0_->task(), "sigma0");
  StartNetServer("net-server");
  StartBlockServer("block-server");
  for (uint32_t i = 0; i < config_.num_guests; ++i) {
    guests_.push_back(MakeGuest("guest" + std::to_string(i)));
  }
  machine_.cpu().SetInterruptsEnabled(true);
  auditor_ = MakeAuditor(machine_, config_);
  if (auditor_) {
    auditor_->AttachUkernel(*kernel_);
  }
}

void UkernelStack::ArmFaults(const hwsim::FaultPlan& plan) {
  fault_injector_ = std::make_unique<hwsim::FaultInjector>(machine_, plan);
  nic_.SetFaultInjector(fault_injector_.get());
  disk_.SetFaultInjector(fault_injector_.get());
}

void UkernelStack::StartNetServer(const char* name) {
  net_server_ = std::make_unique<UkNetServer>(machine_, *kernel_, *sigma0_, nic_, net_routes_);
  machine_.tracer().RegisterDomain(net_server_->task(), name);
  net_server_->SetRetryPolicy(config_.nic_retry);
  net_server_->SetDegradePolicy(config_.degrade);
}

void UkernelStack::StartBlockServer(const char* name) {
  block_server_ =
      std::make_unique<UkBlockServer>(machine_, *kernel_, *sigma0_, disk_, blk_store_);
  machine_.tracer().RegisterDomain(block_server_->task(), name);
  block_server_->SetRetryPolicy(config_.disk_retry);
  block_server_->SetDegradePolicy(config_.degrade);
}

std::unique_ptr<UkernelStack::Guest> UkernelStack::MakeGuest(const std::string& name) {
  const uint32_t page = static_cast<uint32_t>(machine_.memory().page_size());

  auto os_task = kernel_->CreateTask(sigma0_->thread());
  auto app_task = kernel_->CreateTask(sigma0_->thread());
  assert(os_task.ok() && app_task.ok());
  auto g = std::make_unique<Guest>(machine_, *os_task, *app_task);
  machine_.tracer().RegisterDomain(g->os_task, name + "-os");
  machine_.tracer().RegisterDomain(g->app_task, name + "-app");

  // Placeholder handlers; the port installs the real ones.
  auto os_thread = kernel_->CreateThread(g->os_task, 200, nullptr);
  auto rx_thread = kernel_->CreateThread(g->os_task, 210, nullptr);
  auto app_thread = kernel_->CreateThread(g->app_task, 100, nullptr);
  assert(os_thread.ok() && rx_thread.ok() && app_thread.ok());
  g->os_thread = *os_thread;
  g->net_rx_thread = *rx_thread;
  g->app_thread = *app_thread;

  // Transfer windows, obtained from sigma0 via real IPC.
  Err err = sigma0_->RequestPages(g->os_thread, kSrvWindowVa, kSrvWindowPages, true);
  assert(err == Err::kNone);
  err = sigma0_->RequestPages(g->net_rx_thread, kRxWindowVa, kRxWindowPages, true);
  assert(err == Err::kNone);
  err = sigma0_->RequestPages(g->app_thread, kAppWindowVa, kAppWindowPages, true);
  assert(err == Err::kNone);

  err = kernel_->SetRecvBuffer(g->os_thread, kSrvWindowVa, kSrvWindowPages * page);
  assert(err == Err::kNone);
  err = kernel_->SetRecvBuffer(g->net_rx_thread, kRxWindowVa, kRxWindowPages * page);
  assert(err == Err::kNone);
  err = kernel_->SetRecvBuffer(g->app_thread, kAppWindowVa, kAppWindowPages * page);
  assert(err == Err::kNone);
  (void)err;

  minios::UkernelPortWiring wiring;
  wiring.kernel = kernel_.get();
  wiring.app_thread = g->app_thread;
  wiring.os_thread = g->os_thread;
  wiring.net_rx_thread = g->net_rx_thread;
  wiring.app_window = kAppWindowVa;
  wiring.app_window_len = kAppWindowPages * page;
  wiring.srv_window = kSrvWindowVa;
  wiring.srv_window_len = kSrvWindowPages * page;
  wiring.blk_server = block_server_->thread();
  wiring.net_server = net_server_->thread();

  g->port = std::make_unique<minios::UkernelPort>(machine_, wiring);
  g->xenbus.OnConnected();
  g->os = std::make_unique<minios::Os>(machine_, *g->port, name);
  ukvm::ProfScope boot_frame(machine_.tracer(),
                             machine_.tracer().profiler().InternFrame("guest.boot"));
  const Err boot = g->os->Boot(/*format_disk=*/true);
  g->booted = boot == Err::kNone;
  if (!g->booted) {
    UKVM_WARN("ukernel stack: guest %s failed to boot: %s", name.c_str(), ukvm::ErrName(boot));
  }
  return g;
}

Err UkernelStack::RunAsApp(size_t i, const std::function<void()>& fn) {
  Guest& g = guest(i);
  ukvm::ProfScope app_frame(machine_.tracer(),
                            machine_.tracer().profiler().InternFrame("guest.app"));
  UKVM_TRY(kernel_->ActivateThread(g.app_thread));
  fn();
  return Err::kNone;
}

void UkernelStack::RouteWirePort(uint16_t wire_port, size_t i) {
  net_routes_.Route(wire_port, guest(i).os_task);
}

Err UkernelStack::KillStorage() {
  UKVM_TRY(kernel_->DestroyTask(block_server_->task()));
  sigma0_->Reclaim(block_server_->task());
  // An in-flight request completing now would move garbage. Cancelled ops
  // stay journaled on the client and replay after the restart.
  machine_.counters().AddNamed("recovery.disk.dma_cancelled", disk_.CancelPending());
  // The kill edge: the detection segment in each guest's recovery clock
  // starts here, not at the watchdog's (later) failed probe.
  for (auto& g : guests_) {
    g->xenbus.MarkFailure(machine_.Now());
  }
  return Err::kNone;
}

Err UkernelStack::KillNetService() {
  UKVM_TRY(kernel_->DestroyTask(net_server_->task()));
  sigma0_->Reclaim(net_server_->task());
  // Otherwise arrivals would land in the dead server's pool and complete
  // into its successor's driver, which never posted those buffers.
  machine_.counters().AddNamed("recovery.nic.rx_forgotten", nic_.CancelPosted());
  return Err::kNone;
}

Err UkernelStack::RestartStorage() {
  (void)KillStorage();  // a no-op once the server is dead
  for (auto& g : guests_) {
    if (GuestAlive(*g)) {
      g->xenbus.OnDetected();
    }
  }
  StartBlockServer("block-server-2");
  for (auto& g : guests_) {
    if (GuestAlive(*g)) {
      g->xenbus.OnReclaimed();
    }
  }
  for (auto& g : guests_) {
    if (GuestAlive(*g)) {
      g->port->SetBlockServer(block_server_->thread());
      g->xenbus.OnReconnected();
      g->xenbus.OnReplayed(g->port->ReplayBlockJournal());
    }
  }
  return Err::kNone;
}

Err UkernelStack::RestartNetService() {
  (void)KillNetService();  // a no-op once the server is dead
  StartNetServer("net-server-2");
  for (auto& g : guests_) {
    if (GuestAlive(*g)) {
      g->port->SetNetServer(net_server_->thread());
    }
  }
  return Err::kNone;
}

// --- Health probes ---------------------------------------------------------------

Err UkernelStack::EnsureMonitor() {
  if (monitor_thread_.valid() && kernel_->ThreadAlive(monitor_thread_)) {
    return Err::kNone;
  }
  auto task = kernel_->CreateTask(sigma0_->thread());
  if (!task.ok()) {
    return task.error();
  }
  monitor_task_ = *task;
  auto thread = kernel_->CreateThread(monitor_task_, 120, nullptr);
  if (!thread.ok()) {
    return thread.error();
  }
  monitor_thread_ = *thread;
  UKVM_TRY(sigma0_->RequestPages(monitor_thread_, kMonitorWindowVa, kMonitorWindowPages,
                                 /*writable=*/true));
  return kernel_->SetRecvBuffer(
      monitor_thread_, kMonitorWindowVa,
      kMonitorWindowPages * static_cast<uint32_t>(machine_.memory().page_size()));
}

Err UkernelStack::ProbeStorageService() {
  UKVM_TRY(EnsureMonitor());
  // One real 1-block read of the monitor's own slice, via the ordinary IPC
  // request path — exactly what a client would send.
  ukern::IpcMessage msg = ukern::IpcMessage::Short(minios::kBlkReadLabel, 0, 1);
  return minios::ReplyStatus(kernel_->Call(monitor_thread_, block_server_->thread(), msg));
}

Err UkernelStack::ProbeNetService() {
  UKVM_TRY(EnsureMonitor());
  // One real transmit through the send path (the frame goes out on the
  // wire; nothing routes back, which is fine for a liveness probe).
  ukern::IpcMessage msg = ukern::IpcMessage::Short(minios::kNetSendLabel);
  msg.has_string = true;
  msg.string = ukern::StringItem{kMonitorWindowVa, kProbePayloadBytes};
  return minios::ReplyStatus(kernel_->Call(monitor_thread_, net_server_->thread(), msg));
}

Err UkernelStack::KillGuest(size_t i) {
  Guest& g = guest(i);
  for (const ukvm::DomainId task : {g.app_task, g.os_task}) {
    UKVM_TRY(kernel_->DestroyTask(task));
    sigma0_->Reclaim(task);
  }
  return Err::kNone;
}

}  // namespace ustack
