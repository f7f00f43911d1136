#include "src/stacks/tcb_lists.h"

namespace ustack {

using ukvm::TcbComponent;
using ukvm::TrustClass;

namespace {

std::vector<std::string> UkernelKernelFiles() {
  return {"src/ukernel/kernel.cc", "src/ukernel/kernel.h", "src/ukernel/ipc.h",
          "src/ukernel/mapdb.cc", "src/ukernel/mapdb.h",   
          "src/ukernel/sched.h",  "src/ukernel/task.h",    "src/ukernel/thread.h"};
}

std::vector<std::string> HypervisorFiles() {
  return {"src/vmm/hypervisor.cc",     "src/vmm/hypervisor.h",    "src/vmm/domain.h",
          "src/vmm/event_channel.cc",  "src/vmm/event_channel.h", "src/vmm/grant_table.cc",
          "src/vmm/grant_table.h",     "src/vmm/pt_virt.cc",      "src/vmm/pt_virt.h",
          "src/vmm/exception_virt.cc", "src/vmm/exception_virt.h", "src/vmm/sched.cc",
          "src/vmm/sched.h"};
}

std::vector<std::string> MiniOsFiles() {
  return {"src/os/kernel.cc", "src/os/kernel.h", "src/os/vfs.cc",
          "src/os/vfs.h",     "src/os/netstack.cc", "src/os/netstack.h",
          "src/os/process.h", "src/os/syscall.h"};
}

std::vector<std::string> DriverFiles() {
  return {"src/drivers/nic_driver.cc", "src/drivers/nic_driver.h",
          "src/drivers/disk_driver.cc", "src/drivers/disk_driver.h"};
}

}  // namespace

std::vector<TcbComponent> UkernelTcbComponents() {
  return {
      TcbComponent{"microkernel", TrustClass::kPrivileged, UkernelKernelFiles()},
      TcbComponent{"sigma0 (memory server)", TrustClass::kCriticalPath,
                   {"src/stacks/sigma0.cc", "src/stacks/sigma0.h"}},
      TcbComponent{"net driver server", TrustClass::kIsolated,
                   {"src/stacks/uk_net_server.cc", "src/stacks/uk_net_server.h",
                    "src/os/net_protocol.h", "src/drivers/nic_driver.cc",
                    "src/drivers/nic_driver.h"}},
      TcbComponent{"block service", TrustClass::kIsolated,
                   {"src/stacks/uk_block_server.cc", "src/stacks/uk_block_server.h",
                    "src/os/blk_protocol.h", "src/drivers/disk_driver.cc",
                    "src/drivers/disk_driver.h"}},
      TcbComponent{"MiniOS server (per guest)", TrustClass::kIsolated, MiniOsFiles()},
      TcbComponent{"syscall redirection port", TrustClass::kIsolated,
                   {"src/os/ports/ukernel_port.cc", "src/os/ports/ukernel_port.h",
                    "src/os/blk_protocol.h"}},
  };
}

std::vector<TcbComponent> VmmTcbComponents(bool parallax_storage) {
  std::vector<TcbComponent> components = {
      TcbComponent{"hypervisor", TrustClass::kPrivileged, HypervisorFiles()},
      // Dom0 is the super-VM of §2.2: a legacy OS plus drivers plus the
      // netback, all on the critical path of every guest's I/O.
      TcbComponent{"Dom0 legacy OS", TrustClass::kCriticalPath, MiniOsFiles()},
      TcbComponent{"Dom0 drivers", TrustClass::kCriticalPath, DriverFiles()},
      TcbComponent{"netback", TrustClass::kCriticalPath,
                   {"src/stacks/netsplit.cc", "src/stacks/netsplit.h", "src/stacks/split_grants.h",
                    "src/os/net_protocol.h"}},
      TcbComponent{"MiniOS guest (per VM)", TrustClass::kIsolated, MiniOsFiles()},
      TcbComponent{"paravirtual port + frontends", TrustClass::kIsolated,
                   {"src/os/ports/vmm_port.cc", "src/os/ports/vmm_port.h",
                    "src/os/blk_protocol.h"}},
  };
  // Inside Dom0 the blkback shares the grant owners the netback already counts.
  std::vector<std::string> blkback = {"src/stacks/blksplit.cc", "src/stacks/blksplit.h",
                                      "src/os/blk_protocol.h"};
  if (parallax_storage) {
    blkback.push_back("src/stacks/split_grants.h");
  }
  components.push_back(TcbComponent{
      parallax_storage ? "Parallax storage VM" : "Dom0 blkback",
      parallax_storage ? TrustClass::kIsolated : TrustClass::kCriticalPath, blkback});
  return components;
}

std::vector<TcbComponent> NativeTcbComponents() {
  std::vector<std::string> everything = MiniOsFiles();
  for (const auto& f : DriverFiles()) {
    everything.push_back(f);
  }
  everything.push_back("src/os/ports/native_port.cc");
  everything.push_back("src/os/ports/native_port.h");
  return {TcbComponent{"monolithic OS", TrustClass::kPrivileged, everything}};
}

}  // namespace ustack
