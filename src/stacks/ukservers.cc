#include "src/stacks/ukservers.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/core/log.h"
#include "src/os/kernel.h"
#include "src/os/ports/protocols.h"

namespace ustack {

using ukern::IpcMessage;
using ukern::MapItem;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::Result;
using ukvm::ThreadId;

namespace {

// Server-internal VA layout.
constexpr hwsim::Vaddr kDriverPoolVa = 0x0100'0000ull;
constexpr hwsim::Vaddr kStagingVa = 0x0180'0000ull;
constexpr hwsim::Vaddr kWindowVa = 0x0200'0000ull;
constexpr uint32_t kDriverPoolPages = 64;
constexpr uint32_t kWindowPages = 16;

}  // namespace

// --- Sigma0 ----------------------------------------------------------------------

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

Result<hwsim::Vaddr> Sigma0::ProvisionPage() {
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
  return va;
}

IpcMessage Sigma0::Handle(ThreadId sender, IpcMessage msg) {
  if (msg.regs[0] == kSigma0MapLabel) {
    const hwsim::Vaddr va = msg.regs[1];
    const auto pages = static_cast<uint32_t>(msg.regs[2]);
    const bool writable = msg.regs[3] != 0;
    if (pages == 0 || pages > 1024) {
      return IpcMessage::Error(Err::kInvalidArgument);
    }
    IpcMessage reply;
    reply.reg_count = 1;
    for (uint32_t i = 0; i < pages; ++i) {
      auto src = ProvisionPage();
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
    auto src = ProvisionPage();
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

// --- UkNetServer -----------------------------------------------------------------

UkNetServer::UkNetServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0,
                         hwsim::Nic& nic)
    : machine_(machine), kernel_(kernel), health_(machine, "uk.net") {
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

void UkNetServer::RoutePort(uint16_t wire_port, ThreadId client_rx) {
  wire_routes_[wire_port] = client_rx;
}

void UkNetServer::OnPacket(hwsim::Frame frame, uint32_t len) {
  // Demultiplex to a client rx thread and forward the packet as a one-way
  // IPC with a string item sourced directly from the driver buffer
  // (single-copy receive path).
  ThreadId target = ukvm::ThreadId::Invalid();
  std::vector<uint8_t> header(std::min<uint32_t>(len, 6));
  machine_.memory().Read(machine_.memory().FrameBase(frame), header);
  if (header.size() >= 2) {
    const auto dst_port = static_cast<uint16_t>((header[0] << 8) | header[1]);
    auto it = wire_routes_.find(dst_port);
    if (it != wire_routes_.end()) {
      target = it->second;
    }
  }
  if (!target.valid() && !clients_.empty()) {
    target = clients_.front();
  }
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
      clients_.push_back(rx);
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

// --- UkBlockServer ----------------------------------------------------------------

UkBlockServer::UkBlockServer(hwsim::Machine& machine, ukern::Kernel& kernel, Sigma0& sigma0,
                             hwsim::Disk& disk, minios::BlkStore& store)
    : machine_(machine), kernel_(kernel), disk_(disk), health_(machine, "uk.blk"),
      store_(store) {
  auto task = kernel_.CreateTask(sigma0.thread());
  assert(task.ok());
  task_ = *task;
  auto thread = kernel_.CreateThread(task_, 220, [this](ThreadId sender, IpcMessage msg) {
    return Handle(sender, std::move(msg));
  });
  assert(thread.ok());
  thread_ = *thread;

  Err err = sigma0.RequestPages(thread_, kStagingVa, 1, /*writable=*/true);
  assert(err == Err::kNone);
  err = sigma0.RequestPages(thread_, kWindowVa, kWindowPages, /*writable=*/true);
  assert(err == Err::kNone);
  err = kernel_.SetRecvBuffer(thread_, kWindowVa,
                              kWindowPages * static_cast<uint32_t>(machine_.memory().page_size()));
  assert(err == Err::kNone);
  (void)err;
  staging_va_ = kStagingVa;
  window_va_ = kWindowVa;
  ukern::Task* t = kernel_.FindTask(task_);
  staging_frame_ = t->space.Walk(staging_va_)->frame;
  driver_ = std::make_unique<udrv::DiskDriver>(machine_, disk);
  err = kernel_.AssociateIrq(disk.line(), thread_);
  assert(err == Err::kNone);
}

IpcMessage UkBlockServer::Handle(ThreadId sender, IpcMessage msg) {
  const uint64_t label = msg.regs[0];
  if (label == ukern::Kernel::kIrqLabel) {
    driver_->OnInterrupt();
    return IpcMessage{};
  }
  if (label != minios::kBlkInfoLabel && label != minios::kBlkReadLabel &&
      label != minios::kBlkWriteLabel) {
    return IpcMessage::Error(Err::kNotSupported);
  }
  // Every request names the sender's slice, assigned on first contact.
  auto client = kernel_.TaskOf(sender);
  if (!client.ok()) {
    return IpcMessage::Error(client.error());
  }
  auto base = store_.SliceBase(*client);
  if (!base.ok()) {
    return IpcMessage::Error(base.error());
  }
  IpcMessage reply;
  reply.regs[0] = 0;
  reply.reg_count = 1;
  if (label == minios::kBlkInfoLabel) {
    reply.regs[1] = disk_.config().block_size;
    reply.regs[2] = store_.slice_blocks();
    reply.reg_count = 3;
    return reply;
  }
  const bool is_write = label == minios::kBlkWriteLabel;
  const uint64_t lba = msg.regs[1];
  const auto count = static_cast<uint32_t>(msg.regs[2]);
  if (count == 0 || count > driver_->blocks_per_page() || lba + count > store_.slice_blocks()) {
    return IpcMessage::Error(Err::kOutOfRange);
  }
  const uint32_t bytes = count * disk_.config().block_size;
  if (is_write) {
    if (msg.string_data.size() < bytes) {
      return IpcMessage::Error(Err::kInvalidArgument);
    }
    // Exactly-once (E19): regs[3] carries the client's journal id and
    // regs[4] its low-water mark. A replayed id that already hit the disk
    // is acknowledged from the store without re-touching it.
    if (store_.AlreadyApplied(*client, msg.regs[3], msg.regs[4])) {
      return reply;
    }
  }
  if (health_.ShouldFastFail()) {
    return IpcMessage::Error(Err::kRetryExhausted);
  }
  // Reads land in the staging page. A write's payload landed in our
  // receive window; write straight from its backing frame (zero extra
  // copy).
  const hwsim::Frame frame =
      is_write ? kernel_.FindTask(task_)->space.Walk(window_va_)->frame : staging_frame_;
  const Err err = SubmitAndWait(is_write, *base + lba, count, frame);
  if (err != Err::kNone) {
    return IpcMessage::Error(err);
  }
  if (is_write) {
    store_.MarkApplied(*client, msg.regs[3]);
  } else {
    reply.has_string = true;
    reply.string = ukern::StringItem{staging_va_, bytes};
  }
  return reply;
}

Err UkBlockServer::SubmitAndWait(bool is_write, uint64_t lba, uint32_t count,
                                 hwsim::Frame frame) {
  // Shared state: a completion that straggles in after we gave up on it
  // (timeout) must not write through dangling stack references.
  auto state = std::make_shared<std::pair<bool, Err>>(false, Err::kNone);
  auto done = [state](Err s) {
    state->second = s;
    state->first = true;
  };
  Err err = is_write ? driver_->Write(lba, count, frame, done)
                     : driver_->Read(lba, count, frame, done);
  if (err == Err::kNone) {
    // Also wake if this server is destroyed mid-request (E19 crash
    // injection): the completion will never arrive — the supervisor
    // cancels the corpse's in-flight DMA — and the caller must see the
    // death, not a stall. A write's fate is then unknown, so nothing is
    // marked applied: the client's journal keeps the entry and the replay
    // settles it after the restart.
    err = machine_.WaitUntil([&] { return state->first || !kernel_.TaskAlive(task_); },
                             2'000'000'000ull);
    if (err == Err::kNone && !state->first) {
      return Err::kDead;
    }
  }
  if (err == Err::kNone) {
    err = state->second;
  }
  if (err != Err::kNone) {
    health_.RecordFailure();
    return err;
  }
  health_.RecordSuccess();
  ++served_;
  return Err::kNone;
}

}  // namespace ustack
