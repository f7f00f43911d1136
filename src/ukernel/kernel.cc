#include "src/ukernel/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/core/log.h"

namespace ukern {

using ukvm::CrossingKind;
using ukvm::DomainId;
using ukvm::Err;
using ukvm::IrqLine;
using ukvm::Result;
using ukvm::ThreadId;

Kernel::Kernel(hwsim::Machine& machine) : machine_(machine) {
  auto& ledger = machine_.ledger();
  mech_.ipc_call = ledger.InternMechanism("l4.ipc.call", CrossingKind::kSyncCall);
  mech_.ipc_reply = ledger.InternMechanism("l4.ipc.reply", CrossingKind::kSyncReply);
  mech_.ipc_replywait = ledger.InternMechanism("l4.ipc.replywait", CrossingKind::kSyncReply);
  mech_.ipc_send = ledger.InternMechanism("l4.ipc.send", CrossingKind::kSyncCall);
  mech_.ipc_string = ledger.InternMechanism("l4.ipc.string", CrossingKind::kDataTransfer);
  mech_.ipc_map = ledger.InternMechanism("l4.ipc.map", CrossingKind::kResourceDelegate);
  mech_.ipc_notify = ledger.InternMechanism("l4.ipc.notify", CrossingKind::kAsyncNotify);
  mech_.unmap = ledger.InternMechanism("l4.unmap", CrossingKind::kResourceDelegate);
  mech_.irq_ipc = ledger.InternMechanism("l4.irq.ipc", CrossingKind::kInterrupt);
  mech_.pf_ipc = ledger.InternMechanism("l4.pf.ipc", CrossingKind::kSyncCall);
  ukvm::Tracer& tracer = machine_.tracer();
  ukvm::CycleProfiler& prof = tracer.profiler();
  trace_.call_name = tracer.InternName("l4.ipc.call");
  trace_.call_frame = prof.InternFrame("l4.ipc.call");
  trace_.send_name = tracer.InternName("l4.ipc.send");
  trace_.send_frame = prof.InternFrame("l4.ipc.send");
  trace_.notify_name = tracer.InternName("l4.ipc.notify");
  trace_.notify_frame = prof.InternFrame("l4.ipc.notify");
  trace_.unmap_name = tracer.InternName("l4.unmap");
  trace_.unmap_frame = prof.InternFrame("l4.unmap");
  trace_.irq_name = tracer.InternName("l4.irq.ipc");
  trace_.irq_frame = prof.InternFrame("l4.irq.ipc");
  trace_.pf_name = tracer.InternName("l4.pf.ipc");
  trace_.pf_frame = prof.InternFrame("l4.pf.ipc");
  req_pf_name_ = machine_.reqtrace().InternName("l4.pf");
  string_windows_.resize(machine_.num_vcpus());
  machine_.SetTrapHandler(this);
}

Kernel::~Kernel() {
  if (machine_.trap_handler() == this) {
    machine_.SetTrapHandler(nullptr);
  }
}

// --- Task and thread management ---------------------------------------------

Result<DomainId> Kernel::CreateTask(ThreadId pager) {
  machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  const DomainId id{next_task_id_++};
  tasks_.emplace(id, std::make_unique<Task>(id, machine_, pager));
  if (!root_task_.valid()) {
    root_task_ = id;
  }
  return id;
}

Err Kernel::DestroyTask(DomainId task) {
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  t->alive = false;
  for (ThreadId tid : t->threads) {
    if (Tcb* tcb = FindThread(tid)) {
      tcb->state = ThreadState::kDead;
      run_queue_.Remove(tid);
    }
  }
  // Revoke every mapping in this task's space — including mappings it had
  // delegated onward, which vanish with it (the microkernel half of the
  // liability-inversion experiment E5).
  mapdb_.RemoveAllOf(task, [this](DomainId owner, hwsim::Vaddr vpn) { RevokePte(owner, vpn); });
  FlushShootdowns();
  // The space itself dies: run the full shootdown protocol so every vCPU
  // drops its entries, then quarantine the TLB salt until all acks are in.
  machine_.ShootdownSpaceDeath(&t->space);
  // Drop IRQ routes to its threads.
  for (auto it = irq_routes_.begin(); it != irq_routes_.end();) {
    Tcb* tcb = FindThread(it->second);
    if (tcb == nullptr || ThreadDead(*tcb)) {
      it = irq_routes_.erase(it);
    } else {
      ++it;
    }
  }
  if (current_thread_.valid()) {
    Tcb* cur = FindThread(current_thread_);
    if (cur != nullptr && cur->task == task) {
      current_thread_ = ThreadId::Invalid();
      machine_.cpu().SetDomain(kKernelDomain);
      machine_.cpu().SetMode(hwsim::PrivLevel::kPrivileged);
    }
  }
  return Err::kNone;
}

Result<ThreadId> Kernel::CreateThread(DomainId task, uint32_t priority, IpcHandler handler) {
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  const ThreadId id{next_thread_id_++};
  auto tcb = std::make_unique<Tcb>();
  tcb->id = id;
  tcb->task = task;
  tcb->priority = std::min<uint32_t>(priority, 255);
  tcb->state = ThreadState::kWaiting;
  tcb->handler = std::move(handler);
  threads_.emplace(id, std::move(tcb));
  t->threads.push_back(id);
  return id;
}

Err Kernel::DestroyThread(ThreadId thread) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr || tcb->state == ThreadState::kDead) {
    return Err::kBadHandle;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  tcb->state = ThreadState::kDead;
  run_queue_.Remove(thread);
  if (current_thread_ == thread) {
    current_thread_ = ThreadId::Invalid();
  }
  return Err::kNone;
}

Err Kernel::SetThreadHandler(ThreadId thread, IpcHandler handler) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr || tcb->state == ThreadState::kDead) {
    return Err::kBadHandle;
  }
  tcb->handler = std::move(handler);
  return Err::kNone;
}

Err Kernel::SetNotifyHandler(ThreadId thread, NotifyHandler handler) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr) {
    return Err::kBadHandle;
  }
  tcb->notify_handler = std::move(handler);
  return Err::kNone;
}

Err Kernel::SetRecvBuffer(ThreadId thread, hwsim::Vaddr buffer, uint32_t len) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr) {
    return Err::kBadHandle;
  }
  tcb->recv_buffer = buffer;
  tcb->recv_buffer_len = len;
  return Err::kNone;
}

Err Kernel::SetSmallSpace(DomainId task, bool small) {
  if (small && !machine_.platform().has_segmentation && !machine_.platform().has_fcse) {
    return Err::kNotSupported;
  }
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  t->small_space = small;
  return Err::kNone;
}

Err Kernel::SetPager(DomainId task, ThreadId pager) {
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  t->pager = pager;
  return Err::kNone;
}

bool Kernel::TaskAlive(DomainId task) const {
  auto it = tasks_.find(task);
  return it != tasks_.end() && it->second->alive;
}

bool Kernel::ThreadAlive(ThreadId thread) const {
  auto it = threads_.find(thread);
  return it != threads_.end() && !ThreadDead(*it->second);
}

Result<DomainId> Kernel::TaskOf(ThreadId thread) const {
  auto it = threads_.find(thread);
  if (it == threads_.end()) {
    return Err::kBadHandle;
  }
  return it->second->task;
}

Task* Kernel::FindTask(DomainId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : it->second.get();
}

void Kernel::ForEachTask(const std::function<void(Task&)>& fn) {
  for (const auto& [id, task] : tasks_) {
    if (task->alive) {
      fn(*task);
    }
  }
}

Tcb* Kernel::FindThread(ThreadId id) {
  auto it = threads_.find(id);
  return it == threads_.end() ? nullptr : it->second.get();
}

// --- Kernel entry/exit -------------------------------------------------------

void Kernel::EnterKernel(Stub stub) {
  const hwsim::CostModel& costs = machine_.costs();
  machine_.Charge(stub == Stub::kFast ? costs.fast_trap_entry : costs.trap_entry);
  machine_.cpu().SetDomain(kKernelDomain);
  machine_.cpu().SetMode(hwsim::PrivLevel::kPrivileged);
  machine_.cpu().SetInterruptsEnabled(false);
}

void Kernel::LeaveKernelTo(ThreadId thread, Stub stub) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr || ThreadDead(*tcb)) {
    // Nothing to return to; stay in the kernel (idle).
    current_thread_ = ThreadId::Invalid();
    machine_.cpu().SetInterruptsEnabled(true);
    return;
  }
  Task* task = FindTask(tcb->task);
  assert(task != nullptr);
  if (task->small_space) {
    machine_.cpu().SwitchAddressSpaceSmall(&task->space);
  } else {
    machine_.cpu().SwitchAddressSpace(&task->space);
  }
  machine_.cpu().SetSegments(&task->segments);
  machine_.cpu().SetDomain(task->id);
  machine_.cpu().SetMode(hwsim::PrivLevel::kUser);
  const hwsim::CostModel& costs = machine_.costs();
  machine_.Charge(stub == Stub::kFast ? costs.fast_trap_return : costs.trap_return);
  current_thread_ = thread;
  tcb->state = ThreadState::kRunning;
  machine_.cpu().SetInterruptsEnabled(true);
  machine_.DeliverPendingInterrupts();
}

template <typename Body>
void Kernel::RunInThread(ThreadId thread, Stub stub, Body&& body) {
  const ThreadId prev = current_thread_;
  if (stub == Stub::kFast) {
    lazy_queue_dirty_ = true;
  }
  LeaveKernelTo(thread, stub);
  if (body()) {
    EnterKernel(stub);
  }
  current_thread_ = prev;
}

IpcMessage Kernel::RunHandler(Tcb& dest, ThreadId sender, IpcMessage&& msg) {
  IpcMessage reply = dest.handler ? dest.handler(sender, std::move(msg)) : IpcMessage{};
  ++dest.messages_handled;
  if (dest.state == ThreadState::kRunning) {
    dest.state = ThreadState::kWaiting;
  }
  return reply;
}

Err Kernel::ActivateThread(ThreadId thread) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr || tcb->state == ThreadState::kDead) {
    return Err::kBadHandle;
  }
  if (!TaskAlive(tcb->task)) {
    return Err::kDead;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().schedule_decision);
  if (lazy_queue_dirty_) {
    DrainLazyRunQueue();
  }
  LeaveKernelTo(thread, Stub::kTrap);
  return Err::kNone;
}

void Kernel::DrainLazyRunQueue() {
  // Lazy scheduling's deferred half: the fast path direct-switches without
  // touching run_queue_, so by the next real schedule decision the queue
  // may hold threads that are no longer ready. One sweep reconciles it.
  fastpath_stats_.lazy_fixups += run_queue_.RemoveIf([this](ThreadId id) {
    Tcb* t = FindThread(id);
    return t == nullptr || t->state != ThreadState::kReady;
  });
  lazy_queue_dirty_ = false;
}

// --- IPC ----------------------------------------------------------------------

Err Kernel::CheckIpc(const Tcb* caller, const Tcb* dest, const IpcMessage& msg) const {
  if (caller == nullptr || dest == nullptr) {
    return Err::kBadHandle;
  }
  if (ThreadDead(*caller) || ThreadDead(*dest)) {
    return Err::kDead;
  }
  return msg.reg_count > kIpcRegWords ? Err::kInvalidArgument : Err::kNone;
}

void Kernel::ChargeRegTransfer(const IpcMessage& msg) {
  machine_.Charge(machine_.costs().CopyCost(uint64_t{msg.reg_count} * 8));
}
Result<uint64_t> Kernel::TransferString(Tcb& sender, Tcb& receiver, const IpcMessage& msg,
                                        IpcMessage& delivered) {
  if (msg.string.len == 0) {
    return uint64_t{0};
  }
  if (msg.string.len > kMaxStringBytes) {
    return Err::kInvalidArgument;
  }
  if (receiver.recv_buffer_len == 0) {
    return Err::kWouldBlock;  // receiver did not open a string receive window
  }
  Task* from = FindTask(sender.task);
  Task* to = FindTask(receiver.task);
  assert(from != nullptr && to != nullptr);

  const uint32_t len = std::min(msg.string.len, receiver.recv_buffer_len);
  const uint64_t page = from->space.page_size();
  std::vector<uint8_t> bytes(len);

  // Gather from the sender's space page by page.
  uint32_t done = 0;
  while (done < len) {
    const hwsim::Vaddr va = msg.string.snd_base + done;
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(len - done, page - (va & (page - 1))));
    machine_.Charge(machine_.costs().tlb_miss_walk);
    hwsim::Pte* pte = from->space.Walk(va);
    if (pte == nullptr || !pte->present) {
      return Err::kFault;
    }
    pte->accessed = true;
    const hwsim::Paddr pa = machine_.memory().FrameBase(pte->frame) + (va & (page - 1));
    if (machine_.memory().Read(pa, std::span<uint8_t>(&bytes[done], chunk)) != Err::kNone) {
      return Err::kFault;
    }
    done += chunk;
  }

  // Scatter into the receiver's registered window.
  done = 0;
  while (done < len) {
    const hwsim::Vaddr va = receiver.recv_buffer + done;
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(len - done, page - (va & (page - 1))));
    machine_.Charge(machine_.costs().tlb_miss_walk);
    hwsim::Pte* pte = to->space.Walk(va);
    if (pte == nullptr || !pte->present || !pte->writable) {
      return Err::kFault;
    }
    pte->accessed = true;
    pte->dirty = true;
    const hwsim::Paddr pa = machine_.memory().FrameBase(pte->frame) + (va & (page - 1));
    if (machine_.memory().Write(pa, std::span<const uint8_t>(&bytes[done], chunk)) != Err::kNone) {
      return Err::kFault;
    }
    done += chunk;
  }

  machine_.ChargeCopy(len);
  delivered.string_data = std::move(bytes);
  return uint64_t{len};
}

Err Kernel::TransferMapItems(DomainId from_id, DomainId to_id, const std::vector<MapItem>& items) {
  if (items.empty()) {
    return Err::kNone;
  }
  Task* from = FindTask(from_id);
  Task* to = FindTask(to_id);
  for (const MapItem& item : items) {
    const uint64_t page = from->space.page_size();
    for (uint32_t i = 0; i < item.pages; ++i) {
      const hwsim::Vaddr snd_va = item.snd_base + uint64_t{i} * page;
      const hwsim::Vaddr rcv_va = item.rcv_base + uint64_t{i} * page;
      const hwsim::Vaddr snd_vpn = from->space.VpnOf(snd_va);
      const hwsim::Vaddr rcv_vpn = to->space.VpnOf(rcv_va);

      MapNode* node = mapdb_.Find(from_id, snd_vpn);
      hwsim::Pte* pte = from->space.Walk(snd_va);
      if (node == nullptr || pte == nullptr || !pte->present) {
        return Err::kPermissionDenied;  // cannot delegate what you don't hold
      }
      if (mapdb_.Find(to_id, rcv_vpn) != nullptr) {
        return Err::kAlreadyExists;
      }
      const bool writable = item.writable && pte->writable;  // no privilege amplification
      const hwsim::Frame frame = pte->frame;

      if (item.grant) {
        UKVM_TRY(mapdb_.MoveNode(node, to_id, rcv_vpn));
        from->space.Unmap(snd_va);
        InvalidateStringWindow(from->space, snd_vpn);
        machine_.Charge(machine_.costs().pte_write);
        // Salt-aware flush: on tagged-TLB platforms (and for small spaces)
        // the granter's entries outlive address-space switches. Remote vCPUs
        // must drop it too before the receiver relies on exclusivity.
        machine_.cpu().InvalidatePage(&from->space, snd_vpn);
        machine_.TlbShootdown(&from->space, {&snd_vpn, 1});
      } else {
        mapdb_.AddChild(node, to_id, rcv_vpn, frame);
      }
      to->space.Map(rcv_va, frame, hwsim::PtePerms{writable, /*user=*/true});
      machine_.Charge(machine_.costs().pte_write);
    }
    machine_.ledger().Record(mech_.ipc_map, from_id, to_id, 0, uint64_t{item.pages} * page);
  }
  return Err::kNone;
}

IpcMessage Kernel::ReplyLeg(Tcb& server, Tcb& caller, IpcMessage reply) {
  const uint64_t t1 = machine_.Now();
  machine_.Charge(machine_.costs().kernel_op);
  if (reply.reg_count > kIpcRegWords) {
    reply = IpcMessage::Error(Err::kInvalidArgument);  // malformed: nothing transfers
  }
  ChargeRegTransfer(reply);
  if (reply.has_string) {
    auto moved = TransferString(server, caller, reply, reply);
    if (!moved.ok()) {
      reply.status = moved.error();
    } else {
      machine_.ledger().Record(mech_.ipc_string, server.task, caller.task, 0, *moved);
    }
  }
  if (reply.status == Err::kNone) {
    reply.status = TransferMapItems(server.task, caller.task, reply.map_items);
  }
  machine_.ledger().Record(mech_.ipc_reply, server.task, caller.task, machine_.Now() - t1, 0);
  LeaveKernelTo(caller.id, Stub::kTrap);
  return reply;
}

// --- E21/E23: the L4 fast-path family -------------------------------------------
//
// Liedtke's short-IPC fast path [Lie93], structurally: the kernel is
// entered through a minimal stub (fast_trap_entry — no full frame save),
// the message stays in physical registers across the switch (zero copy
// cost), the caller's time slice is donated to the receiver by a direct
// process switch that never consults the scheduler, and the run queue is
// fixed up lazily at the next real schedule decision. Single-page string
// items ride a temporary-mapping window: one kernel PTE write plus one
// charged copy instead of the walk-twice gather/scatter. Everything the
// fast path cannot handle falls back to the slow path, unchanged.

Kernel::FastpathVerdict Kernel::ClassifyFastpath(ThreadId caller, ThreadId dest,
                                                 const IpcMessage& msg) {
  Tcb* c = FindThread(caller);
  Tcb* d = FindThread(dest);
  // Error paths (bad handle, dead caller or partner, too many registers)
  // keep the slow path's exact charge-and-reply discipline.
  if (CheckIpc(c, d, msg) != Err::kNone) {
    return FastpathVerdict::kNotReady;
  }
  if (d->state != ThreadState::kWaiting || !d->handler) {
    return FastpathVerdict::kNotReady;  // receiver not blocked in receive
  }
  if (!msg.map_items.empty()) {
    return FastpathVerdict::kMapItem;  // delegation always goes slow
  }
  if (msg.has_string && msg.string.len > 0 && !FastStringEligible(*c, *d, msg)) {
    return FastpathVerdict::kString;
  }
  return FastpathVerdict::kEligible;
}
bool Kernel::FastStringEligible(Tcb& sender, Tcb& receiver, const IpcMessage& msg) {
  if (receiver.recv_buffer_len == 0 || msg.string.len > receiver.recv_buffer_len) {
    return false;  // no receive window, or the slow path would truncate
  }
  Task* from = FindTask(sender.task);
  Task* to = FindTask(receiver.task);
  if (from == nullptr || to == nullptr) {
    return false;
  }
  const uint64_t page = from->space.page_size();
  const uint64_t len = msg.string.len;
  // One temporary-mapping window covers one source and one destination
  // page; a boundary-crossing string is "too long" for it.
  if ((msg.string.snd_base & (page - 1)) + len > page) {
    return false;
  }
  if ((receiver.recv_buffer & (page - 1)) + len > page) {
    return false;
  }
  const hwsim::Pte* spte = from->space.Walk(msg.string.snd_base);
  if (spte == nullptr || !spte->present) {
    return false;  // would need the pager: slow path
  }
  const hwsim::Pte* dpte = to->space.Walk(receiver.recv_buffer);
  return dpte != nullptr && dpte->present && dpte->writable;
}

uint64_t Kernel::FastTransferString(Tcb& sender, Tcb& receiver, const IpcMessage& msg,
                                    IpcMessage& delivered) {
  Task* from = FindTask(sender.task);
  Task* to = FindTask(receiver.task);
  assert(from != nullptr && to != nullptr);
  const uint64_t page = from->space.page_size();
  const uint32_t len = msg.string.len;
  // One PTE write maps the source page into the kernel's copy window; the
  // destination page is reached through the receiver's space directly, so
  // a single charged copy replaces TransferString's per-page walk-twice
  // gather/scatter. E23: on the family path, this vCPU remembers
  // which source page its window maps — a burst of strings from the same
  // page pays the PTE write once and every later transfer rides the pin.
  bool pinned = false;
  if (ipc_path_ == IpcPath::kFamily) {
    StringWindow& win = string_windows_[machine_.current_vcpu()];
    const uint64_t inst = from->space.instance_id();
    const hwsim::Vaddr vpn = from->space.VpnOf(msg.string.snd_base);
    if (win.valid && win.space_instance == inst && win.vpn == vpn) {
      pinned = true;
      ++fastpath_stats_.window_pins;
    } else {
      win = StringWindow{inst, vpn, true};
    }
  }
  if (!pinned) {
    machine_.Charge(machine_.costs().pte_write);
  }
  hwsim::Pte* spte = from->space.Walk(msg.string.snd_base);
  hwsim::Pte* dpte = to->space.Walk(receiver.recv_buffer);
  assert(spte != nullptr && dpte != nullptr);
  spte->accessed = true;
  dpte->accessed = true;
  dpte->dirty = true;
  std::vector<uint8_t> bytes(len);
  const hwsim::Paddr src =
      machine_.memory().FrameBase(spte->frame) + (msg.string.snd_base & (page - 1));
  const hwsim::Paddr dst =
      machine_.memory().FrameBase(dpte->frame) + (receiver.recv_buffer & (page - 1));
  (void)machine_.memory().Read(src, std::span<uint8_t>(bytes));
  (void)machine_.memory().Write(dst, std::span<const uint8_t>(bytes));
  machine_.ChargeCopy(len);
  delivered.string_data = std::move(bytes);
  return len;
}

void Kernel::InvalidateStringWindow(const hwsim::PageTable& space, hwsim::Vaddr vpn) {
  // Pure bookkeeping — never charges. Instance ids are never recycled, so
  // matching on them can never confuse a dead space with a live one.
  for (StringWindow& win : string_windows_) {
    if (win.valid && win.space_instance == space.instance_id() && win.vpn == vpn) {
      win.valid = false;
    }
  }
}

IpcMessage Kernel::Call(ThreadId caller, ThreadId dest, IpcMessage msg) {
  Stub stub = Stub::kTrap;
  if (ipc_path_ != IpcPath::kSlow) {
    switch (ClassifyFastpath(caller, dest, msg)) {
      case FastpathVerdict::kEligible:
        stub = Stub::kFast;
        break;
      case FastpathVerdict::kNotReady:
        ++fastpath_stats_.fallback_not_ready;
        break;
      case FastpathVerdict::kMapItem:
        ++fastpath_stats_.fallback_map;
        break;
      case FastpathVerdict::kString:
        ++fastpath_stats_.fallback_string;
        break;
    }
  }
  Tcb* c = FindThread(caller);
  Tcb* d = FindThread(dest);
  ukvm::SpanScope trace_span(machine_.tracer(), trace_.call_name,
                             c != nullptr ? c->task : DomainId::Invalid());
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.call_frame);
  const uint64_t t0 = machine_.Now();
  EnterKernel(stub);
  ++ipc_calls_;

  // LeaveKernelTo never switches back into a dead or unknown caller: it
  // idles, uncharged, with interrupts open again.
  auto fail = [&](Err err) {
    LeaveKernelTo(caller, stub);
    return IpcMessage::Error(err);
  };

  IpcMessage delivered = msg;
  delivered.string_data.clear();
  if (stub == Stub::kFast) {
    // Register transfer costs nothing: a short message never leaves the
    // physical registers on its way across the direct process switch.
    ++fastpath_stats_.taken;
    if (msg.has_string && msg.string.len > 0) {
      const uint64_t moved = FastTransferString(*c, *d, msg, delivered);
      machine_.ledger().Record(mech_.ipc_string, c->task, d->task, 0, moved);
      ++fastpath_stats_.string_windows;
    }
  } else {
    machine_.Charge(machine_.costs().kernel_op);
    if (Err err = CheckIpc(c, d, msg); err != Err::kNone) {
      return fail(err);
    }
    ChargeRegTransfer(msg);
    if (msg.has_string) {
      auto moved = TransferString(*c, *d, msg, delivered);
      if (!moved.ok()) {
        return fail(moved.error());
      }
      machine_.ledger().Record(mech_.ipc_string, c->task, d->task, 0, *moved);
    }
    if (Err err = TransferMapItems(c->task, d->task, msg.map_items); err != Err::kNone) {
      return fail(err);
    }
  }
  machine_.ledger().Record(mech_.ipc_call, c->task, d->task, machine_.Now() - t0, 0);

  // Either end can be destroyed while the call is handled (a supervisor
  // killing a server task mid-request, or the caller's guest). Whatever the
  // handler returned is void: the caller observes the death, exactly as if
  // the call had never been answered, and the kernel never switches back
  // into a dead space. The kernel synthesizes the reply on the dead
  // partner's behalf, so the crossing ledger still sees one balanced
  // call/reply pair.
  //
  // E23 reply-wait: on the family path the handler's return IS the
  // server's reply-and-wait syscall, and the stub that carried the request
  // is still resident — so a register-only reply between two living ends
  // never pays a second kernel entry, and the server parks straight back
  // into receive.
  IpcMessage reply;
  bool alive = false;
  bool coalesced = false;
  RunInThread(dest, stub, [&] {
    reply = RunHandler(*d, caller, std::move(delivered));
    alive = !ThreadDead(*d) && !ThreadDead(*c);
    coalesced = alive && stub == Stub::kFast && ipc_path_ == IpcPath::kFamily &&
                reply.IsRegisterOnly();
    return !coalesced;
  });
  if (!alive) {
    machine_.ledger().Record(mech_.ipc_reply, d->task, c->task, 0, 0);
    return fail(Err::kDead);
  }
  if (stub == Stub::kFast && reply.IsRegisterOnly()) {
    if (coalesced) {
      ++fastpath_stats_.replywait_coalesced;
    }
    const bool skip_record =
        coalesced ? test_skip_replywait_record_ : test_skip_fastpath_reply_record_;
    if (!skip_record) {
      machine_.ledger().Record(coalesced ? mech_.ipc_replywait : mech_.ipc_reply, d->task,
                               c->task, 0, 0);
    }
    LeaveKernelTo(caller, Stub::kFast);
    return reply;
  }
  // Only the return leg of a fast Call with a complex reply falls off the
  // fast path: it runs the slow path's exact reply sequence.
  if (stub == Stub::kFast) {
    ++fastpath_stats_.slow_replies;
  }
  return ReplyLeg(*d, *c, std::move(reply));
}

Err Kernel::Send(ThreadId caller, ThreadId dest, IpcMessage msg) {
  Stub stub = Stub::kTrap;
  if (ipc_path_ == IpcPath::kFamily) {
    // Only the register-only shape rides the stubs; strings and map items
    // keep the slow path's exact charge-and-reply discipline.
    if (msg.IsRegisterOnly() &&
        ClassifyFastpath(caller, dest, msg) == FastpathVerdict::kEligible) {
      stub = Stub::kFast;
      ++fastpath_stats_.send_fast;
    } else {
      ++fastpath_stats_.send_slow;
    }
  }
  Tcb* c = FindThread(caller);
  Tcb* d = FindThread(dest);
  ukvm::SpanScope trace_span(machine_.tracer(), trace_.send_name,
                             c != nullptr ? c->task : DomainId::Invalid());
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.send_frame);
  EnterKernel(stub);
  ++ipc_calls_;
  auto fail = [&](Err err) {
    LeaveKernelTo(caller, stub);
    return err;
  };
  // On the fast stub the short message stays in physical registers across
  // the direct switch, so its transfer costs nothing.
  IpcMessage delivered = msg;
  if (stub == Stub::kTrap) {
    machine_.Charge(machine_.costs().kernel_op);
    if (Err err = CheckIpc(c, d, msg); err != Err::kNone) {
      return fail(err);
    }
    ChargeRegTransfer(msg);
    if (msg.has_string) {
      auto moved = TransferString(*c, *d, msg, delivered);
      if (!moved.ok()) {
        return fail(moved.error());
      }
      machine_.ledger().Record(mech_.ipc_string, c->task, d->task, 0, *moved);
    }
  }
  // l4.ipc.send is one-way: pairing-exempt by design.
  machine_.ledger().Record(mech_.ipc_send, c->task, d->task, 0, 0);
  RunInThread(dest, stub, [&] {
    (void)RunHandler(*d, caller, std::move(delivered));
    return true;
  });
  LeaveKernelTo(caller, stub);
  return Err::kNone;
}

Err Kernel::Notify(ThreadId dest, uint64_t bits) {
  Tcb* d = FindThread(dest);
  if (d == nullptr || ThreadDead(*d)) {
    return Err::kDead;
  }
  Stub stub = Stub::kTrap;
  if (ipc_path_ == IpcPath::kFamily) {
    // Fast delivery needs a receiver blocked in receive with a notify
    // handler; everything else (latch-only, busy receiver) falls back to
    // the slow path's exact charge sequence.
    if (d->state == ThreadState::kWaiting && d->notify_handler) {
      stub = Stub::kFast;
      ++fastpath_stats_.notify_fast;
    } else {
      ++fastpath_stats_.notify_slow;
    }
  }
  ukvm::SpanScope trace_span(machine_.tracer(), trace_.notify_name, d->task);
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.notify_frame);
  if (stub == Stub::kTrap) {
    machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  }
  // New bits merge into the pending set, and the handler consumes the
  // whole merged set. The mutation hook makes the fast stub deliver only
  // the fresh bits — anything latched while the receiver was busy is
  // silently lost, which the differential fast-vs-slow fuzzer must flag as
  // an end-state divergence.
  const bool skip_latch = stub == Stub::kFast && test_skip_notify_latch_;
  if (!skip_latch) {
    d->pending_notify_bits |= bits;
  }
  ++d->notifications;
  machine_.ledger().Record(mech_.ipc_notify, machine_.cpu().current_domain(), d->task, 0, 0);
  if (d->notify_handler) {
    RunInThread(dest, stub, [&] {
      const uint64_t pending = skip_latch ? bits : d->pending_notify_bits;
      d->pending_notify_bits = 0;
      d->notify_handler(pending);
      return true;
    });
    if (current_thread_.valid()) {
      LeaveKernelTo(current_thread_, stub);
    }
  }
  return Err::kNone;
}

// --- Memory management ---------------------------------------------------------

Err Kernel::RootMapPhys(DomainId task, hwsim::Vaddr va, hwsim::Frame frame, bool writable) {
  if (task != root_task_) {
    return Err::kPermissionDenied;
  }
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  const hwsim::Vaddr vpn = t->space.VpnOf(va);
  if (mapdb_.Find(task, vpn) != nullptr) {
    return Err::kAlreadyExists;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().pte_write);
  t->space.Map(va, frame, hwsim::PtePerms{writable, /*user=*/true});
  mapdb_.AddRoot(task, vpn, frame);
  return Err::kNone;
}

Err Kernel::RootUnmapPhys(DomainId task, std::span<const hwsim::Vaddr> vas) {
  if (task != root_task_) {
    return Err::kPermissionDenied;
  }
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  for (const hwsim::Vaddr va : vas) {
    if (MapNode* node = mapdb_.Find(task, t->space.VpnOf(va))) {
      mapdb_.RemoveSubtree(node, /*include_self=*/true,
                           [this](DomainId owner, hwsim::Vaddr vpn) { RevokePte(owner, vpn); });
    }
  }
  FlushShootdowns();
  return Err::kNone;
}

void Kernel::RevokePte(DomainId task, hwsim::Vaddr vpn) {
  Task* t = FindTask(task);
  if (t == nullptr) {
    return;
  }
  t->space.Unmap(vpn << t->space.page_shift());
  InvalidateStringWindow(t->space, vpn);
  machine_.ChargeTo(kKernelDomain, machine_.costs().pte_write);
  // Salt-aware flush: tagged-TLB entries and small-space entries survive
  // address-space switches, so the current-space check alone is not enough.
  machine_.cpu().InvalidatePage(&t->space, vpn);
  pending_shootdown_.emplace_back(&t->space, vpn);
}

void Kernel::FlushShootdowns() {
  if (pending_shootdown_.empty()) {
    return;
  }
  // Group queued revocations by space (first-seen order, so charging stays
  // deterministic) and run one IPI round per space.
  std::vector<std::pair<const hwsim::PageTable*, std::vector<hwsim::Vaddr>>> groups;
  for (const auto& [space, vpn] : pending_shootdown_) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [space = space](const auto& g) { return g.first == space; });
    if (it == groups.end()) {
      groups.emplace_back(space, std::vector<hwsim::Vaddr>{vpn});
    } else {
      it->second.push_back(vpn);
    }
  }
  pending_shootdown_.clear();
  for (const auto& [space, vpns] : groups) {
    machine_.TlbShootdown(space, vpns);
  }
}

Err Kernel::Unmap(DomainId task, hwsim::Vaddr va, uint32_t pages, bool include_self) {
  Task* t = FindTask(task);
  if (t == nullptr || !t->alive) {
    return Err::kBadHandle;
  }
  ukvm::SpanScope trace_span(machine_.tracer(), trace_.unmap_name, task);
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.unmap_frame);
  const uint64_t t0 = machine_.Now();
  EnterKernel(Stub::kTrap);
  machine_.Charge(machine_.costs().kernel_op);
  const uint64_t page = t->space.page_size();
  for (uint32_t i = 0; i < pages; ++i) {
    const hwsim::Vaddr vpn = t->space.VpnOf(va + uint64_t{i} * page);
    MapNode* node = mapdb_.Find(task, vpn);
    if (node == nullptr) {
      continue;
    }
    mapdb_.RemoveSubtree(node, include_self,
                         [this](DomainId owner, hwsim::Vaddr v) { RevokePte(owner, v); });
  }
  machine_.Charge(machine_.costs().tlb_shootdown);
  FlushShootdowns();
  machine_.ledger().Record(mech_.unmap, machine_.cpu().current_domain(), task,
                           machine_.Now() - t0, uint64_t{pages} * page);
  if (current_thread_.valid()) {
    LeaveKernelTo(current_thread_, Stub::kTrap);
  }
  return Err::kNone;
}

Err Kernel::ResolveFault(ThreadId thread, hwsim::Vaddr va, bool write) {
  // E22 follow-up: a fault that arrives outside any traced request (a bare
  // TouchPage, a reflected guest fault) mints its own origin so paging
  // control paths parent into the request DAG; a fault inside a request
  // (an OS server touching client memory mid-syscall) stays attributed to
  // that request. Request tracing never charges simulated cycles, so the
  // sim results are byte-identical either way.
  ukvm::RequestTrace& rt = machine_.reqtrace();
  if (!rt.enabled() || rt.current().valid()) {
    return DoResolveFault(thread, va, write);
  }
  Tcb* tcb = FindThread(thread);
  const DomainId origin_domain = tcb != nullptr ? tcb->task : DomainId::Invalid();
  ukvm::ReqOriginScope origin(rt, req_pf_name_, origin_domain);
  const Err err = DoResolveFault(thread, va, write);
  if (err == Err::kNone) {
    rt.EndRequest(origin.ref());
  } else {
    rt.AbandonRequest(origin.ref());
  }
  return err;
}

Err Kernel::DoResolveFault(ThreadId thread, hwsim::Vaddr va, bool write) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr) {
    return Err::kBadHandle;
  }
  Task* task = FindTask(tcb->task);
  if (task == nullptr || !task->alive) {
    return Err::kDead;
  }
  if (!task->pager.valid()) {
    return Err::kFault;
  }
  Tcb* pager = FindThread(task->pager);
  if (pager == nullptr || ThreadDead(*pager)) {
    return Err::kDead;  // pager gone: the fault is unresolvable
  }

  ukvm::SpanScope trace_span(machine_.tracer(), trace_.pf_name, tcb->task);
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.pf_frame);
  const uint64_t t0 = machine_.Now();
  // Synthesized page-fault IPC, as the L4 pager protocol specifies.
  IpcMessage fault = IpcMessage::Short(kPageFaultLabel, va, write ? 1 : 0);
  machine_.ledger().Record(mech_.pf_ipc, tcb->task, pager->task, 0, 0);
  // E23: on the family path the fault IPC to a waiting pager rides the
  // fast stubs. The fault trap itself stays a full-cost hardware trap
  // (TouchPage charges trap_entry/trap_return around us); only the two
  // kernel/pager crossings go fast.
  Stub stub = Stub::kTrap;
  if (ipc_path_ == IpcPath::kFamily && pager->state == ThreadState::kWaiting && pager->handler) {
    stub = Stub::kFast;
    ++fastpath_stats_.fault_fast;
  }
  IpcMessage reply;
  RunInThread(pager->id, stub, [&] {
    reply = RunHandler(*pager, thread, std::move(fault));
    return true;
  });
  // The pager answers even when it dies while handling the fault (a
  // supervisor killing it mid-request): the kernel synthesizes the reply
  // on its behalf so the pf pairing stays balanced, and whatever the doomed
  // handler returned is void — its map items are never applied. An error
  // reply is a reply too.
  machine_.ledger().Record(mech_.ipc_reply, pager->task, tcb->task, machine_.Now() - t0, 0);
  if (ThreadDead(*pager)) {
    return Err::kDead;
  }
  if (reply.status != Err::kNone) {
    return reply.status;
  }
  // The pager answers with map items targeting the faulter's space.
  UKVM_TRY(TransferMapItems(pager->task, task->id, reply.map_items));

  // Verify the fault is now resolved.
  hwsim::Pte* pte = task->space.Walk(va);
  if (pte == nullptr || !pte->present || (write && !pte->writable)) {
    return Err::kFault;
  }
  return Err::kNone;
}

Err Kernel::TouchPage(ThreadId thread, hwsim::Vaddr va, bool write) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr || tcb->state == ThreadState::kDead) {
    return Err::kBadHandle;
  }
  Task* task = FindTask(tcb->task);
  hwsim::Pte* pte = task->space.Walk(va);
  machine_.Charge(machine_.costs().tlb_miss_walk);
  if (pte != nullptr && pte->present && (!write || pte->writable)) {
    pte->accessed = true;
    if (write) {
      pte->dirty = true;
    }
    return Err::kNone;
  }
  // Hardware page fault: trap into the kernel, run the pager protocol.
  machine_.Charge(machine_.costs().trap_entry);
  const Err err = ResolveFault(thread, va, write);
  machine_.Charge(machine_.costs().trap_return);
  return err;
}

Err Kernel::CopyIn(ThreadId thread, hwsim::Vaddr va, std::span<uint8_t> out) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr) {
    return Err::kBadHandle;
  }
  Task* task = FindTask(tcb->task);
  const uint64_t page = task->space.page_size();
  size_t done = 0;
  while (done < out.size()) {
    const hwsim::Vaddr addr = va + done;
    const size_t chunk = std::min<size_t>(out.size() - done, page - (addr & (page - 1)));
    UKVM_TRY(TouchPage(thread, addr, /*write=*/false));
    const hwsim::Pte* pte = task->space.Walk(addr);
    const hwsim::Paddr pa = machine_.memory().FrameBase(pte->frame) + (addr & (page - 1));
    UKVM_TRY(machine_.memory().Read(pa, out.subspan(done, chunk)));
    done += chunk;
  }
  machine_.ChargeCopy(out.size());
  return Err::kNone;
}

Err Kernel::CopyOut(ThreadId thread, hwsim::Vaddr va, std::span<const uint8_t> in) {
  Tcb* tcb = FindThread(thread);
  if (tcb == nullptr) {
    return Err::kBadHandle;
  }
  Task* task = FindTask(tcb->task);
  const uint64_t page = task->space.page_size();
  size_t done = 0;
  while (done < in.size()) {
    const hwsim::Vaddr addr = va + done;
    const size_t chunk = std::min<size_t>(in.size() - done, page - (addr & (page - 1)));
    UKVM_TRY(TouchPage(thread, addr, /*write=*/true));
    const hwsim::Pte* pte = task->space.Walk(addr);
    const hwsim::Paddr pa = machine_.memory().FrameBase(pte->frame) + (addr & (page - 1));
    UKVM_TRY(machine_.memory().Write(pa, in.subspan(done, chunk)));
    done += chunk;
  }
  machine_.ChargeCopy(in.size());
  return Err::kNone;
}

// --- Interrupts -----------------------------------------------------------------

Err Kernel::AssociateIrq(IrqLine line, ThreadId handler_thread) {
  if (!ThreadAlive(handler_thread)) {
    return Err::kBadHandle;
  }
  machine_.ChargeTo(kKernelDomain, machine_.costs().kernel_op);
  irq_routes_[line] = handler_thread;
  return Err::kNone;
}

void Kernel::HandleInterrupt(IrqLine line) {
  auto it = irq_routes_.find(line);
  if (it == irq_routes_.end()) {
    return;  // spurious / unrouted
  }
  Tcb* handler = FindThread(it->second);
  if (handler == nullptr || ThreadDead(*handler)) {
    return;  // driver died; interrupt is dropped
  }
  ukvm::SpanScope trace_span(machine_.tracer(), trace_.irq_name, handler->task);
  ukvm::ProfScope trace_frame(machine_.tracer(), trace_.irq_frame);
  const uint64_t t0 = machine_.Now();
  EnterKernel(Stub::kTrap);
  machine_.Charge(machine_.costs().kernel_op);
  machine_.ledger().Record(mech_.irq_ipc, ukvm::kHardwareDomain, handler->task,
                           machine_.Now() - t0, 0);
  IpcMessage msg = IpcMessage::Short(kIrqLabel, line.value());
  RunInThread(handler->id, Stub::kTrap, [&] {
    (void)RunHandler(*handler, ThreadId::Invalid(), std::move(msg));
    return true;
  });
  if (current_thread_.valid()) {
    LeaveKernelTo(current_thread_, Stub::kTrap);
  } else {
    machine_.cpu().SetInterruptsEnabled(true);
  }
}

void Kernel::HandleTrap(hwsim::TrapFrame& frame) {
  switch (frame.vector) {
    case hwsim::TrapVector::kPageFault: {
      if (current_thread_.valid()) {
        frame.regs[0] =
            static_cast<uint64_t>(ResolveFault(current_thread_, frame.fault_addr,
                                               frame.write_access));
      } else {
        frame.regs[0] = static_cast<uint64_t>(Err::kFault);
      }
      break;
    }
    default: {
      // Unhandled exception in user code: the kernel kills the thread.
      if (current_thread_.valid()) {
        UKVM_WARN("ukernel: killing thread %u on %s", current_thread_.value(),
                  hwsim::TrapVectorName(frame.vector));
        (void)DestroyThread(current_thread_);
      }
      frame.regs[0] = static_cast<uint64_t>(Err::kAborted);
      break;
    }
  }
}

}  // namespace ukern
