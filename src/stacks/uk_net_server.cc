#include "src/stacks/uk_net_server.h"

#include <cassert>
#include <utility>

#include "src/os/kernel.h"
#include "src/os/ports/protocols.h"

namespace ustack {

using ukern::IpcMessage;
using ukvm::Err;
using ukvm::ThreadId;

namespace {

// Server-internal VA layout.
constexpr hwsim::Vaddr kDriverPoolVa = 0x0100'0000ull;
constexpr hwsim::Vaddr kWindowVa = 0x0200'0000ull;
constexpr uint32_t kDriverPoolPages = 64;
constexpr uint32_t kWindowPages = 16;

}  // namespace

UkNetServer::UkNetServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0,
                         hwsim::Nic& nic, const minios::NetRoutes& routes)
    : machine_(machine), kernel_(kernel), routes_(routes), health_(machine, "uk.net") {
  auto task = kernel_.CreateTask(sigma0.thread());
  assert(task.ok());
  task_ = *task;
  auto thread = kernel_.CreateThread(task_, 230, [this](ThreadId sender, IpcMessage msg) {
    return Handle(sender, std::move(msg));
  });
  assert(thread.ok());
  thread_ = *thread;

  // DMA-able buffer pool, obtained from sigma0 like any other task would.
  Err err = sigma0.RequestPages(thread_, kDriverPoolVa, kDriverPoolPages, /*writable=*/true);
  assert(err == Err::kNone);
  // Receive window for inbound string items (kNetSendLabel payloads).
  err = sigma0.RequestPages(thread_, kWindowVa, kWindowPages, /*writable=*/true);
  assert(err == Err::kNone);
  (void)err;
  err = kernel_.SetRecvBuffer(thread_, kWindowVa,
                              kWindowPages * static_cast<uint32_t>(machine_.memory().page_size()));
  assert(err == Err::kNone);

  // Discover the machine frames behind the pool (the driver needs them; a
  // real server would learn them from a dataspace/DMA API).
  std::vector<hwsim::Frame> pool;
  ukern::Task* t = kernel_.FindTask(task_);
  for (uint32_t i = 0; i < kDriverPoolPages; ++i) {
    const hwsim::Vaddr va = kDriverPoolVa + uint64_t{i} * machine_.memory().page_size();
    const hwsim::Pte* pte = t->space.Walk(va);
    assert(pte != nullptr && pte->present);
    pool.push_back(pte->frame);
    frame_to_va_[pte->frame] = va;
  }
  driver_ = std::make_unique<udrv::NicDriver>(machine_, nic, std::move(pool));
  driver_->SetRxCallback([this](hwsim::Frame frame, uint32_t len) { OnPacket(frame, len); });
  err = kernel_.AssociateIrq(nic.line(), thread_);
  assert(err == Err::kNone);
}

hwsim::Vaddr UkNetServer::PoolVaOf(hwsim::Frame frame) const {
  auto it = frame_to_va_.find(frame);
  return it == frame_to_va_.end() ? 0 : it->second;
}

ThreadId UkNetServer::ClientFor(std::span<const uint8_t> packet) const {
  if (const auto client = routes_.Classify(packet)) {
    for (const Client& c : clients_) {
      if (c.task == *client) {
        return c.rx;
      }
    }
    return ThreadId::Invalid();
  }
  return clients_.empty() ? ThreadId::Invalid() : clients_.front().rx;
}

void UkNetServer::OnPacket(hwsim::Frame frame, uint32_t len) {
  // Demultiplex to a client rx thread and forward the packet as a one-way
  // IPC with a string item sourced directly from the driver buffer
  // (single-copy receive path).
  const ThreadId target = ClientFor(machine_.memory().FrameData(frame).subspan(0, len));
  if (!target.valid() || !kernel_.ThreadAlive(target)) {
    ++rx_dropped_;
    return;
  }
  const hwsim::Vaddr src_va = PoolVaOf(frame);
  if (src_va == 0) {
    ++rx_dropped_;
    return;
  }
  IpcMessage msg = IpcMessage::Short(minios::kNetRxLabel);
  msg.has_string = true;
  msg.string = ukern::StringItem{src_va, len};
  if (kernel_.Send(thread_, target, msg) == Err::kNone) {
    ++rx_forwarded_;
  } else {
    ++rx_dropped_;
  }
}

IpcMessage UkNetServer::Handle(ThreadId sender, IpcMessage msg) {
  switch (msg.regs[0]) {
    case ukern::Kernel::kIrqLabel: {
      driver_->OnInterrupt();
      return IpcMessage{};
    }
    case minios::kNetAttachLabel: {
      const ThreadId rx{static_cast<uint32_t>(msg.regs[1])};
      auto client = kernel_.TaskOf(rx);
      if (!client.ok()) {
        return IpcMessage::Error(client.error());
      }
      clients_.push_back(Client{*client, rx});
      IpcMessage reply;
      reply.regs[0] = 0;
      reply.reg_count = 1;
      return reply;
    }
    case minios::kNetSendLabel: {
      if (health_.ShouldFastFail()) {
        return IpcMessage::Error(Err::kRetryExhausted);
      }
      const Err err = driver_->SendCopyWithRetry(msg.string_data);
      if (err == Err::kNone) {
        health_.RecordSuccess();
      } else if (err != Err::kInvalidArgument) {
        health_.RecordFailure();  // device-path failure, not a bad argument
      }
      IpcMessage reply;
      reply.regs[0] = static_cast<uint64_t>(minios::RetOf(err));
      if (err == Err::kNone) {
        reply.regs[0] = 0;
      }
      reply.reg_count = 1;
      return reply;
    }
    default:
      (void)sender;
      return IpcMessage::Error(Err::kNotSupported);
  }
}

}  // namespace ustack
