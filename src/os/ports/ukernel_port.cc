#include "src/os/ports/ukernel_port.h"

#include <cassert>
#include <cstring>

#include "src/core/log.h"
#include "src/os/kernel.h"
#include "src/os/ports/protocols.h"

namespace minios {

using ukern::IpcMessage;
using ukvm::Err;
using ukvm::ThreadId;

Err ReplyStatus(const IpcMessage& reply) {
  return reply.status != Err::kNone ? reply.status
                                    : ErrOf(static_cast<SyscallRet>(reply.regs[0]));
}

// --- Device adaptors -----------------------------------------------------------

// Block device backed by IPC to the user-level block server. Calls are made
// from the OS server's thread (nested IPC, as L4Linux calls its driver
// servers).
class UkernelPort::IpcBlock : public BlockDevice {
 public:
  explicit IpcBlock(UkernelPort& port) : port_(port) {
    auto& rt = port_.machine_.reqtrace();
    req_read_name_ = rt.InternName("blk.read");
    req_write_name_ = rt.InternName("blk.write");
    req_replay_name_ = rt.InternName("recovery.replay");
  }

  uint32_t block_size() const override {
    FetchInfo();
    return block_size_;
  }
  uint64_t capacity_blocks() const override {
    FetchInfo();
    return capacity_;
  }

  Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) override {
    FetchInfo();
    if (block_size_ == 0) {
      return Err::kDead;
    }
    if (out.size() < uint64_t{count} * block_size_) {
      return Err::kInvalidArgument;
    }
    const uint32_t max_blocks =
        std::max<uint32_t>(1, port_.w_.srv_window_len / block_size_);
    uint32_t done = 0;
    while (done < count) {
      const uint32_t chunk = std::min(count - done, max_blocks);
      // One traced request per chunk; the kernel's string copy back into
      // the reply attributes to it via the ambient scope (the IPC handler
      // runs synchronously inside Call).
      auto& rt = port_.machine_.reqtrace();
      ukvm::ReqOriginScope req_scope(rt, req_read_name_,
                                     port_.machine_.cpu().current_domain());
      IpcMessage msg = IpcMessage::Short(kBlkReadLabel, lba + done, chunk);
      IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.blk_server, msg);
      if (const Err err = ReplyStatus(reply); err != Err::kNone) {
        rt.AbandonRequest(req_scope.ref());
        return err;
      }
      const uint64_t bytes = uint64_t{chunk} * block_size_;
      if (reply.string_data.size() < bytes) {
        rt.AbandonRequest(req_scope.ref());
        return Err::kFault;
      }
      std::memcpy(out.data() + uint64_t{done} * block_size_, reply.string_data.data(), bytes);
      rt.EndRequest(req_scope.ref());
      done += chunk;
    }
    return Err::kNone;
  }

  Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) override {
    FetchInfo();
    if (block_size_ == 0) {
      return Err::kDead;
    }
    if (in.size() < uint64_t{count} * block_size_) {
      return Err::kInvalidArgument;
    }
    const uint32_t max_blocks =
        std::max<uint32_t>(1, port_.w_.srv_window_len / block_size_);
    uint32_t done = 0;
    while (done < count) {
      const uint32_t chunk = std::min(count - done, max_blocks);
      const auto payload =
          in.subspan(uint64_t{done} * block_size_, uint64_t{chunk} * block_size_);
      const Err err = ReplyStatus(WriteChunk(/*replay_id=*/0, lba + done, chunk, payload));
      if (err != Err::kNone) {
        return err;
      }
      done += chunk;
    }
    return Err::kNone;
  }

  // --- Crash recovery (E19) ---------------------------------------------------

  uint64_t ReplayJournal() {
    return journal_.Replay([this](uint64_t id, const BlkJournal::Entry& entry) {
      (void)WriteChunk(id, entry.lba, entry.count, entry.payload);
    });
  }

  const BlkJournal& journal() const { return journal_; }

 private:
  // One journaled write IPC: stages the payload in the server window and
  // calls the block server. A first submission mints its request and
  // journals it under a fresh id; a replay (`replay_id` != 0) re-issues a
  // journaled write under its original id and trace. regs[3] carries the
  // id, regs[4] the journal's low-water mark. A genuine server answer (any
  // status) resolves the entry; a kernel-level kDead/kBadHandle (server
  // task destroyed mid-call) keeps it, and its request live, for the next
  // replay.
  IpcMessage WriteChunk(uint64_t replay_id, uint64_t lba, uint32_t count,
                        std::span<const uint8_t> payload) {
    auto& rt = port_.machine_.reqtrace();
    const bool replay = replay_id != 0;
    // One traced request per chunk; the kernel's string copy attributes to
    // it via the ambient scope. A replay re-adopts the original request,
    // forgiving the handoffs that died with the old server, and the whole
    // replay call becomes a recovery leaf on its critical path.
    ukvm::ReqTraceRef trace;
    if (replay) {
      trace = journal_.entries().at(replay_id).trace;
      rt.ForgiveHandoffs(trace);
    } else {
      trace = rt.BeginRequest(req_write_name_, port_.machine_.cpu().current_domain());
    }
    ukvm::ReqAdoptScope req_scope(rt, trace);
    const uint64_t t0 = port_.machine_.Now();
    port_.PokeWindow(port_.w_.os_thread, port_.w_.srv_window, payload);
    const uint64_t id = replay ? replay_id : journal_.Add(lba, count, payload, trace);
    IpcMessage msg = IpcMessage::Short(kBlkWriteLabel, lba, count, id);
    msg.regs[4] = journal_.LowWater();
    msg.reg_count = 5;
    msg.has_string = true;
    msg.string = ukern::StringItem{port_.w_.srv_window, static_cast<uint32_t>(payload.size())};
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.blk_server, msg);
    if (reply.status == Err::kDead || reply.status == Err::kBadHandle) {
      return reply;
    }
    const bool ok = ReplyStatus(reply) == Err::kNone;
    journal_.Resolve(id, ok);
    if (replay) {
      rt.AddLeafTo(trace, req_replay_name_, ukvm::ReqNodeKind::kRecovery,
                   port_.machine_.cpu().current_domain(), t0, port_.machine_.Now());
      rt.EndRequest(trace);
    } else if (ok) {
      rt.EndRequest(trace);
    } else {
      rt.AbandonRequest(trace);
    }
    return reply;
  }

  void FetchInfo() const {
    if (info_fetched_) {
      return;
    }
    IpcMessage msg = IpcMessage::Short(kBlkInfoLabel);
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.blk_server, msg);
    if (reply.status == Err::kNone) {
      block_size_ = static_cast<uint32_t>(reply.regs[1]);
      capacity_ = reply.regs[2];
      info_fetched_ = true;
    }
  }

  UkernelPort& port_;
  mutable bool info_fetched_ = false;
  mutable uint32_t block_size_ = 0;
  mutable uint64_t capacity_ = 0;
  BlkJournal journal_;  // ids stay monotonic across restarts
  // E22 interned request-trace names.
  uint32_t req_read_name_ = 0;
  uint32_t req_write_name_ = 0;
  uint32_t req_replay_name_ = 0;
};

// Network device backed by IPC to the user-level net driver server.
class UkernelPort::IpcNet : public NetDevice {
 public:
  explicit IpcNet(UkernelPort& port) : port_(port) {
    req_tx_name_ = port_.machine_.reqtrace().InternName("net.tx");
  }

  Err Send(std::span<const uint8_t> packet) override {
    if (packet.size() > port_.w_.srv_window_len) {
      return Err::kInvalidArgument;
    }
    auto& rt = port_.machine_.reqtrace();
    ukvm::ReqOriginScope req_scope(rt, req_tx_name_,
                                   port_.machine_.cpu().current_domain());
    port_.PokeWindow(port_.w_.os_thread, port_.w_.srv_window, packet);
    IpcMessage msg = IpcMessage::Short(kNetSendLabel);
    msg.has_string = true;
    msg.string = ukern::StringItem{port_.w_.srv_window, static_cast<uint32_t>(packet.size())};
    IpcMessage reply = port_.w_.kernel->Call(port_.w_.os_thread, port_.w_.net_server, msg);
    const Err err = ReplyStatus(reply);
    if (err == Err::kNone) {
      rt.EndRequest(req_scope.ref());
    } else {
      rt.AbandonRequest(req_scope.ref());
    }
    return err;
  }

  void SetRecvHandler(RecvHandler handler) override { handler_ = std::move(handler); }
  uint32_t mtu() const override { return 1514; }

  void Deliver(std::span<const uint8_t> packet) {
    if (handler_) {
      handler_(packet);
    }
  }

 private:
  UkernelPort& port_;
  RecvHandler handler_;
  uint32_t req_tx_name_ = 0;  // E22 "net.tx" origin
};

class UkernelPort::PortConsole : public ConsoleDevice {
 public:
  explicit PortConsole(UkernelPort& port) : port_(port) {}
  void Write(std::string_view text) override {
    port_.machine_.ChargeCopy(text.size());
    port_.console_log_.emplace_back(text);
  }

 private:
  UkernelPort& port_;
};

// --- UkernelPort -----------------------------------------------------------------

UkernelPort::UkernelPort(hwsim::Machine& machine, UkernelPortWiring wiring)
    : machine_(machine), w_(wiring) {
  assert(w_.kernel != nullptr);
  req_syscall_name_ = machine_.reqtrace().InternName("os.syscall");
  net_dev_ = std::make_unique<IpcNet>(*this);
  block_dev_ = std::make_unique<IpcBlock>(*this);
  console_dev_ = std::make_unique<PortConsole>(*this);

  w_.kernel->SetThreadHandler(w_.os_thread, [this](ThreadId sender, IpcMessage msg) {
    return OsServerEntry(sender, std::move(msg));
  });
  w_.kernel->SetThreadHandler(w_.net_rx_thread, [this](ThreadId sender, IpcMessage msg) {
    return NetRxEntry(sender, std::move(msg));
  });

  // Register with the net server so inbound packets reach our rx thread.
  IpcMessage attach = IpcMessage::Short(kNetAttachLabel, w_.net_rx_thread.value());
  (void)w_.kernel->Call(w_.os_thread, w_.net_server, attach);
}

UkernelPort::~UkernelPort() = default;

NetDevice* UkernelPort::net() { return net_dev_.get(); }
BlockDevice* UkernelPort::block() { return block_dev_.get(); }
ConsoleDevice* UkernelPort::console() { return console_dev_.get(); }

void UkernelPort::SetBlockServer(ThreadId server) { w_.blk_server = server; }

uint64_t UkernelPort::ReplayBlockJournal() { return block_dev_->ReplayJournal(); }
const BlkJournal& UkernelPort::blk_journal() const { return block_dev_->journal(); }

void UkernelPort::SetNetServer(ThreadId server) {
  w_.net_server = server;
  // Re-attach our rx thread with the new server.
  IpcMessage attach = IpcMessage::Short(kNetAttachLabel, w_.net_rx_thread.value());
  (void)w_.kernel->Call(w_.os_thread, w_.net_server, attach);
}

uint32_t UkernelPort::max_transfer() const {
  return std::min(w_.app_window_len, w_.srv_window_len);
}

void UkernelPort::PokeWindow(ThreadId thread, hwsim::Vaddr va, std::span<const uint8_t> bytes) {
  // Simulation plumbing, not a charged operation: the bytes notionally
  // already exist in the task's memory; this materialises them so the
  // kernel's (charged) string copy moves real data.
  auto task_id = w_.kernel->TaskOf(thread);
  if (!task_id.ok()) {
    return;
  }
  ukern::Task* task = w_.kernel->FindTask(*task_id);
  const uint64_t page = task->space.page_size();
  size_t done = 0;
  while (done < bytes.size()) {
    const hwsim::Vaddr addr = va + done;
    const size_t chunk = std::min<size_t>(bytes.size() - done, page - (addr & (page - 1)));
    hwsim::Pte* pte = task->space.Walk(addr);
    if (pte == nullptr || !pte->present) {
      UKVM_WARN("ukernel port: window page unmapped at 0x%llx",
                static_cast<unsigned long long>(addr));
      return;
    }
    machine_.memory().Write(machine_.memory().FrameBase(pte->frame) + (addr & (page - 1)),
                            bytes.subspan(done, chunk));
    done += chunk;
  }
}

SyscallRet UkernelPort::InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) {
  os_ = &os;
  if (req.in.size() > w_.app_window_len || req.out.size() > w_.srv_window_len) {
    return RetOf(Err::kInvalidArgument);
  }
  IpcMessage msg;
  msg.regs[0] = kOsSyscallLabel;
  msg.regs[1] = pid.value();
  msg.regs[2] = static_cast<uint64_t>(req.nr);
  msg.regs[3] = req.a0;
  msg.regs[4] = req.a1;
  msg.regs[5] = req.a2;
  msg.regs[6] = req.in.size();
  msg.regs[7] = req.out.size();
  msg.reg_count = 8;
  if (!req.in.empty()) {
    PokeWindow(w_.app_thread, w_.app_window, req.in);
    msg.has_string = true;
    msg.string = ukern::StringItem{w_.app_window, static_cast<uint32_t>(req.in.size())};
  }
  // Every application system call is one traced request: the IPC to the OS
  // server (and any nested driver-server work it charges) attributes here.
  ukvm::ReqOriginScope req_scope(machine_.reqtrace(), req_syscall_name_,
                                 machine_.cpu().current_domain());
  IpcMessage reply = w_.kernel->Call(w_.app_thread, w_.os_thread, msg);
  if (reply.status != Err::kNone) {
    machine_.reqtrace().AbandonRequest(req_scope.ref());
    return RetOf(reply.status);
  }
  if (!req.out.empty() && !reply.string_data.empty()) {
    const size_t n = std::min(req.out.size(), reply.string_data.size());
    std::memcpy(req.out.data(), reply.string_data.data(), n);
  }
  machine_.reqtrace().EndRequest(req_scope.ref());
  return static_cast<SyscallRet>(reply.regs[0]);
}

IpcMessage UkernelPort::OsServerEntry(ThreadId sender, IpcMessage msg) {
  (void)sender;
  if (msg.regs[0] != kOsSyscallLabel || os_ == nullptr) {
    return IpcMessage::Error(Err::kNotSupported);
  }
  const ukvm::ProcessId pid{static_cast<uint32_t>(msg.regs[1])};
  SyscallReq req;
  req.nr = static_cast<Sys>(msg.regs[2]);
  req.a0 = msg.regs[3];
  req.a1 = msg.regs[4];
  req.a2 = msg.regs[5];
  req.in = msg.string_data;
  std::vector<uint8_t> out_buf(msg.regs[7]);
  req.out = out_buf;

  const SyscallRet ret = os_->SyscallImpl(pid, req);

  IpcMessage reply;
  reply.regs[0] = static_cast<uint64_t>(ret);
  reply.reg_count = 1;
  if (!out_buf.empty() && ret >= 0) {
    PokeWindow(w_.os_thread, w_.srv_window, out_buf);
    reply.has_string = true;
    reply.string = ukern::StringItem{w_.srv_window, static_cast<uint32_t>(out_buf.size())};
  }
  return reply;
}

IpcMessage UkernelPort::NetRxEntry(ThreadId sender, IpcMessage msg) {
  (void)sender;
  if (msg.regs[0] == kNetRxLabel) {
    net_dev_->Deliver(msg.string_data);
  }
  return IpcMessage{};
}

}  // namespace minios
