// Interrupt controller: edge-triggered lines with per-line masking.
//
// Devices assert lines; the machine drains pending unmasked lines into the
// registered TrapHandler at interrupt-delivery points. In the VMM stack the
// hypervisor owns this controller and forwards events to Dom0's virtualized
// interrupt controller (paper section 2.2, primitive 9); in the microkernel
// stack interrupts are converted to IPC messages to user-level driver
// threads.

#ifndef UKVM_SRC_HW_INTERRUPTS_H_
#define UKVM_SRC_HW_INTERRUPTS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/ids.h"
#include "src/core/trace.h"

namespace hwsim {

class InterruptController {
 public:
  // `tracer` is the machine's flight recorder: each Assert that latches a
  // new edge and each successful TakePending records an instant there.
  InterruptController(uint32_t lines, ukvm::Tracer& tracer);

  uint32_t num_lines() const { return static_cast<uint32_t>(pending_.size()); }

  // Device-side: asserts a line (idempotent while pending).
  void Assert(ukvm::IrqLine line);

  // Masking (masked lines stay pending but are not delivered).
  void SetMask(ukvm::IrqLine line, bool masked);
  bool IsMasked(ukvm::IrqLine line) const;

  // Takes the lowest-numbered pending unmasked line, clearing its pending
  // bit (edge-triggered semantics); nullopt if none.
  std::optional<ukvm::IrqLine> TakePending();

  bool AnyDeliverable() const;
  uint64_t asserts() const { return asserts_; }
  uint64_t deliveries() const { return deliveries_; }

 private:
  bool LineInRange(ukvm::IrqLine line) const { return line.value() < pending_.size(); }

  std::vector<bool> pending_;
  std::vector<bool> masked_;
  uint64_t asserts_ = 0;
  uint64_t deliveries_ = 0;
  ukvm::Tracer& tracer_;
  uint32_t assert_name_ = 0;
  uint32_t deliver_name_ = 0;
};

// Inter-processor interrupt vectors. Unlike device lines these are
// CPU-to-CPU: the machine's shootdown protocol posts kTlbShootdown at the
// target vCPUs, which drain their latched vectors at delivery points.
enum class IpiVector : uint8_t {
  kTlbShootdown = 0,
};
inline constexpr uint32_t kIpiVectorCount = 1;

class IpiController {
 public:
  explicit IpiController(uint32_t num_vcpus);

  uint32_t num_vcpus() const { return static_cast<uint32_t>(pending_.size()); }

  // Latches `vec` at `vcpu` (idempotent while pending).
  void Post(uint32_t vcpu, IpiVector vec);
  bool Pending(uint32_t vcpu, IpiVector vec) const;
  // Clears and returns whether `vec` was pending at `vcpu`.
  bool TakePending(uint32_t vcpu, IpiVector vec);

  uint64_t posted() const { return posted_; }
  uint64_t delivered() const { return delivered_; }

 private:
  // pending_[vcpu][vector]
  std::vector<std::vector<bool>> pending_;
  uint64_t posted_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace hwsim

#endif  // UKVM_SRC_HW_INTERRUPTS_H_
