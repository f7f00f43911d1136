#include "src/stacks/native_stack.h"

#include <cassert>

namespace ustack {

NativeStack::NativeStack(Config config)
    : machine_(config.platform, config.memory_bytes, config.num_vcpus),
      nic_(machine_, ukvm::IrqLine(kNicIrq), hwsim::Nic::Config{}),
      disk_(machine_, ukvm::IrqLine(kDiskIrq), hwsim::Disk::Config{}) {
  ArmTracers(machine_, config);
  machine_.tracer().RegisterDomain(kOsDomain, "native-os");
  // Frames for NIC staging plus one disk staging frame.
  std::vector<hwsim::Frame> pool;
  for (int i = 0; i < 33; ++i) {
    auto frame = machine_.memory().AllocFrame(kOsDomain);
    assert(frame.ok());
    pool.push_back(*frame);
  }
  port_ = std::make_unique<minios::NativePort>(machine_, nic_, disk_, kOsDomain,
                                               std::move(pool));
  os_ = std::make_unique<minios::Os>(machine_, *port_, "native-os");
  ukvm::ProfScope boot_frame(machine_.tracer(),
                             machine_.tracer().profiler().InternFrame("guest.boot"));
  const ukvm::Err err = os_->Boot(/*format_disk=*/true);
  assert(err == ukvm::Err::kNone);
  (void)err;
  auditor_ = MakeAuditor(machine_, config);
}

}  // namespace ustack
