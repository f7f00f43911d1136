#include "src/stacks/uk_block_server.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/os/ports/protocols.h"

namespace ustack {

using ukern::IpcMessage;
using ukvm::Err;
using ukvm::ThreadId;

namespace {

// Server-internal VA layout.
constexpr hwsim::Vaddr kStagingVa = 0x0180'0000ull;
constexpr hwsim::Vaddr kWindowVa = 0x0200'0000ull;
constexpr uint32_t kWindowPages = 16;

}  // namespace

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
