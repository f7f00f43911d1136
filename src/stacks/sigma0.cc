#include "src/stacks/sigma0.h"

#include <cassert>
#include <utility>

namespace ustack {

using ukern::IpcMessage;
using ukern::MapItem;
using ukvm::Err;
using ukvm::Result;
using ukvm::ThreadId;

Sigma0::Sigma0(hwsim::Machine& machine, ukern::Kernel& kernel)
    : machine_(machine), kernel_(kernel) {
  auto task = kernel_.CreateTask(ukvm::ThreadId::Invalid());
  assert(task.ok());
  task_ = *task;
  auto thread = kernel_.CreateThread(task_, 255, [this](ThreadId sender, IpcMessage msg) {
    return Handle(sender, std::move(msg));
  });
  assert(thread.ok());
  thread_ = *thread;
}

Result<hwsim::Vaddr> Sigma0::ProvisionPage(ukvm::DomainId task) {
  auto frame = machine_.memory().AllocFrame(task_);
  if (!frame.ok()) {
    return frame.error();
  }
  // Sigma0 maps physical memory idempotently (va == pa), the classic L4
  // arrangement.
  const hwsim::Vaddr va = machine_.memory().FrameBase(*frame);
  const Err err = kernel_.RootMapPhys(task_, va, *frame, /*writable=*/true);
  if (err != Err::kNone) {
    return err;
  }
  machine_.Charge(machine_.costs().kernel_op);  // allocator bookkeeping
  frames_of_[task].push_back(*frame);
  return va;
}

void Sigma0::Reclaim(ukvm::DomainId task) {
  auto it = frames_of_.find(task);
  if (it == frames_of_.end()) {
    return;
  }
  std::vector<hwsim::Vaddr> vas;
  for (const hwsim::Frame frame : it->second) {
    vas.push_back(machine_.memory().FrameBase(frame));
  }
  (void)kernel_.RootUnmapPhys(task_, vas);
  for (const hwsim::Frame frame : it->second) {
    (void)machine_.memory().FreeFrame(frame);
  }
  frames_of_.erase(it);
}

IpcMessage Sigma0::Handle(ThreadId sender, IpcMessage msg) {
  if (msg.regs[0] == kSigma0MapLabel) {
    const hwsim::Vaddr va = msg.regs[1];
    const auto pages = static_cast<uint32_t>(msg.regs[2]);
    const bool writable = msg.regs[3] != 0;
    auto task = kernel_.TaskOf(sender);
    if (pages == 0 || pages > 1024 || !task.ok()) {
      return IpcMessage::Error(Err::kInvalidArgument);
    }
    IpcMessage reply;
    reply.reg_count = 1;
    for (uint32_t i = 0; i < pages; ++i) {
      auto src = ProvisionPage(*task);
      if (!src.ok()) {
        return IpcMessage::Error(src.error());
      }
      reply.map_items.push_back(MapItem{*src, va + uint64_t{i} * machine_.memory().page_size(),
                                        1, writable, /*grant=*/false});
      ++pages_granted_;
    }
    return reply;
  }
  if (msg.regs[0] == ukern::Kernel::kPageFaultLabel) {
    // Default pager: back the faulting page with a fresh zero page.
    const hwsim::Vaddr fault_va = msg.regs[1];
    auto task = kernel_.TaskOf(sender);
    if (!task.ok()) {
      return IpcMessage::Error(Err::kBadHandle);
    }
    auto src = ProvisionPage(*task);
    if (!src.ok()) {
      return IpcMessage::Error(src.error());
    }
    const uint64_t page = machine_.memory().page_size();
    IpcMessage reply;
    reply.reg_count = 1;
    reply.map_items.push_back(MapItem{*src, fault_va & ~(page - 1), 1, /*writable=*/true,
                                      /*grant=*/false});
    ++pages_granted_;
    return reply;
  }
  return IpcMessage::Error(Err::kNotSupported);
}

Err Sigma0::RequestPages(ThreadId requester, hwsim::Vaddr va, uint32_t pages, bool writable) {
  IpcMessage msg = IpcMessage::Short(kSigma0MapLabel, va, pages, writable ? 1 : 0);
  IpcMessage reply = kernel_.Call(requester, thread_, msg);
  return reply.status;
}

}  // namespace ustack
