// The configuration the microkernel and VMM stacks share: the machine, the
// guests and the chaos knobs, declared once on top of the observer knobs.
// Each stack's Config adds only its own experiment variables.

#ifndef UKVM_SRC_STACKS_STACK_CONFIG_H_
#define UKVM_SRC_STACKS_STACK_CONFIG_H_

#include <cstdint>

#include "src/drivers/retry_policy.h"
#include "src/hw/fault_injector.h"
#include "src/hw/platform.h"
#include "src/stacks/observers.h"
#include "src/stacks/watchdog.h"

namespace ustack {

// Per-client virtual-disk size: the stacks' block stores carve the disk
// into slices of this many blocks.
inline constexpr uint64_t kSliceBlocks = 8192;

struct ServiceStackConfig : ObserverConfig {
  hwsim::Platform platform = hwsim::MakeX86Platform();
  uint64_t memory_bytes = 64ull * 1024 * 1024;
  uint32_t num_vcpus = 1;  // >1 arms the TLB shootdown protocol (E18)
  uint32_t num_guests = 1;
  // Chaos knobs (E15). `faults` attaches a seeded injector to both
  // devices; the policies harden the storage and net services against it.
  hwsim::FaultPlan faults;
  udrv::RetryPolicy disk_retry;
  udrv::RetryPolicy nic_retry;
  DegradePolicy degrade;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_STACK_CONFIG_H_
