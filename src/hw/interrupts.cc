#include "src/hw/interrupts.h"

#include <cassert>

namespace hwsim {

InterruptController::InterruptController(uint32_t lines, ukvm::Tracer& tracer)
    : pending_(lines, false),
      masked_(lines, false),
      tracer_(tracer),
      assert_name_(tracer.InternName("irq.assert")),
      deliver_name_(tracer.InternName("irq.deliver")) {
  assert(lines > 0);
}

void InterruptController::Assert(ukvm::IrqLine line) {
  assert(LineInRange(line));
  if (!pending_[line.value()]) {
    pending_[line.value()] = true;
    ++asserts_;
    tracer_.Instant(assert_name_, ukvm::kHardwareDomain, line.value());
  }
}

void InterruptController::SetMask(ukvm::IrqLine line, bool masked) {
  assert(LineInRange(line));
  masked_[line.value()] = masked;
}

bool InterruptController::IsMasked(ukvm::IrqLine line) const {
  assert(LineInRange(line));
  return masked_[line.value()];
}

std::optional<ukvm::IrqLine> InterruptController::TakePending() {
  for (uint32_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i] && !masked_[i]) {
      pending_[i] = false;
      ++deliveries_;
      tracer_.Instant(deliver_name_, ukvm::kHardwareDomain, i);
      return ukvm::IrqLine(i);
    }
  }
  return std::nullopt;
}

bool InterruptController::AnyDeliverable() const {
  for (uint32_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i] && !masked_[i]) {
      return true;
    }
  }
  return false;
}

IpiController::IpiController(uint32_t num_vcpus)
    : pending_(num_vcpus, std::vector<bool>(kIpiVectorCount, false)) {
  assert(num_vcpus > 0);
}

void IpiController::Post(uint32_t vcpu, IpiVector vec) {
  assert(vcpu < pending_.size());
  if (!pending_[vcpu][static_cast<size_t>(vec)]) {
    pending_[vcpu][static_cast<size_t>(vec)] = true;
    ++posted_;
  }
}

bool IpiController::Pending(uint32_t vcpu, IpiVector vec) const {
  assert(vcpu < pending_.size());
  return pending_[vcpu][static_cast<size_t>(vec)];
}

bool IpiController::TakePending(uint32_t vcpu, IpiVector vec) {
  assert(vcpu < pending_.size());
  if (!pending_[vcpu][static_cast<size_t>(vec)]) {
    return false;
  }
  pending_[vcpu][static_cast<size_t>(vec)] = false;
  ++delivered_;
  return true;
}

}  // namespace hwsim
