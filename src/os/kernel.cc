#include "src/os/kernel.h"

#include <cstring>

#include "src/core/log.h"

namespace minios {

using ukvm::Err;
using ukvm::ProcessId;
using ukvm::Result;

const char* SysName(Sys nr) {
  switch (nr) {
    case Sys::kNull:
      return "null";
    case Sys::kExit:
      return "exit";
    case Sys::kGetPid:
      return "getpid";
    case Sys::kYield:
      return "yield";
    case Sys::kGetTime:
      return "gettime";
    case Sys::kOpen:
      return "open";
    case Sys::kCreate:
      return "create";
    case Sys::kClose:
      return "close";
    case Sys::kRead:
      return "read";
    case Sys::kWrite:
      return "write";
    case Sys::kUnlink:
      return "unlink";
    case Sys::kStat:
      return "stat";
    case Sys::kSeek:
      return "seek";
    case Sys::kNetBind:
      return "net_bind";
    case Sys::kNetSend:
      return "net_send";
    case Sys::kNetRecv:
      return "net_recv";
  }
  return "?";
}

Os::Os(hwsim::Machine& machine, ArchPort& port, std::string name)
    : machine_(machine), port_(port), name_(std::move(name)) {
  vfs_ = std::make_unique<Vfs>(*port_.block());
  net_ = std::make_unique<NetStack>(*port_.net());
}

Err Os::Boot(bool format_disk) {
  const Err err = format_disk ? vfs_->Format() : vfs_->Mount();
  if (err != Err::kNone) {
    return err;
  }
  if (port_.console() != nullptr) {
    port_.console()->Write(name_ + ": MiniOS up on " + port_.name());
  }
  return Err::kNone;
}

Result<ProcessId> Os::Spawn(std::string proc_name, uint32_t priority) {
  const ProcessId pid{next_pid_++};
  auto proc = std::make_unique<Process>(pid, std::move(proc_name));
  proc->priority = priority;
  machine_.Charge(machine_.costs().kernel_op);  // process setup
  processes_.emplace(pid, std::move(proc));
  return pid;
}

Process* Os::FindProcess(ProcessId pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

Err Os::AttachProgram(ProcessId pid, ProgramStep step) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr || proc->state == ProcState::kZombie) {
    return Err::kBadHandle;
  }
  if (!step) {
    return Err::kInvalidArgument;
  }
  programs_[pid] = std::move(step);
  proc->state = ProcState::kReady;
  ready_.Enqueue(pid, proc->priority);
  return Err::kNone;
}

uint64_t Os::RunPrograms(uint64_t max_quanta) {
  uint64_t quanta = 0;
  while (quanta < max_quanta) {
    auto pid = ready_.PickNext();
    if (!pid.has_value()) {
      return quanta;  // everything finished
    }
    Process* proc = FindProcess(*pid);
    auto it = programs_.find(*pid);
    if (proc == nullptr || proc->state == ProcState::kZombie || it == programs_.end()) {
      continue;  // died or detached while queued
    }
    machine_.Charge(machine_.costs().schedule_decision);
    proc->state = ProcState::kRunning;
    const bool done = it->second();
    ++quanta;
    if (done || proc->state == ProcState::kZombie) {
      programs_.erase(*pid);
      if (proc->state != ProcState::kZombie) {
        EndProcess(*proc);
      }
    } else {
      proc->state = ProcState::kReady;
      ready_.Enqueue(*pid, proc->priority);
    }
  }
  return quanta;
}

SyscallRet Os::Syscall(ProcessId pid, SyscallReq& req) {
  return port_.InvokeSyscall(*this, pid, req);
}

SyscallRet Os::SyscallImpl(ProcessId pid, SyscallReq& req) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr || proc->state == ProcState::kZombie) {
    return RetOf(Err::kBadHandle);
  }
  ++proc->syscalls_made;
  ++total_syscalls_;
  machine_.Charge(machine_.costs().kernel_op);  // syscall-table dispatch + checks

  switch (req.nr) {
    case Sys::kNull:
      return 0;
    case Sys::kGetPid:
      return pid.value();
    case Sys::kGetTime:
      return static_cast<SyscallRet>(machine_.Now());
    case Sys::kYield:
      machine_.Charge(machine_.costs().schedule_decision);
      return 0;
    case Sys::kExit:
      proc->exit_code = static_cast<int64_t>(req.a0);
      EndProcess(*proc);
      return 0;
    case Sys::kOpen:
    case Sys::kCreate:
    case Sys::kClose:
    case Sys::kRead:
    case Sys::kWrite:
    case Sys::kUnlink:
    case Sys::kStat:
    case Sys::kSeek:
      return DoFileSyscall(*proc, req);
    case Sys::kNetBind:
    case Sys::kNetSend:
    case Sys::kNetRecv:
      return DoNetSyscall(*proc, req);
  }
  return RetOf(Err::kNotSupported);
}

SyscallRet Os::DoFileSyscall(Process& proc, SyscallReq& req) {
  auto fd_handle = [&](int64_t fd) -> FileHandle* {
    if (fd < 0 || static_cast<size_t>(fd) >= proc.fds.size() || !proc.fds[fd].open) {
      return nullptr;
    }
    return &proc.fds[static_cast<size_t>(fd)];
  };

  switch (req.nr) {
    case Sys::kOpen:
    case Sys::kCreate: {
      const std::string_view file(reinterpret_cast<const char*>(req.in.data()), req.in.size());
      auto inode = req.nr == Sys::kCreate ? vfs_->Create(file) : vfs_->LookUp(file);
      if (!inode.ok()) {
        return RetOf(inode.error());
      }
      for (size_t fd = 0; fd < proc.fds.size(); ++fd) {
        if (!proc.fds[fd].open) {
          proc.fds[fd] = FileHandle{true, false, *inode, 0};
          return static_cast<SyscallRet>(fd);
        }
      }
      proc.fds.push_back(FileHandle{true, false, *inode, 0});
      return static_cast<SyscallRet>(proc.fds.size() - 1);
    }
    case Sys::kClose: {
      FileHandle* fh = fd_handle(static_cast<int64_t>(req.a0));
      if (fh == nullptr) {
        return RetOf(Err::kBadHandle);
      }
      fh->open = false;
      return 0;
    }
    case Sys::kRead: {
      FileHandle* fh = fd_handle(static_cast<int64_t>(req.a0));
      if (fh == nullptr) {
        return RetOf(Err::kBadHandle);
      }
      if (fh->is_console) {
        return 0;  // console EOF
      }
      auto n = vfs_->ReadAt(fh->inode, fh->offset, req.out);
      if (!n.ok()) {
        return RetOf(n.error());
      }
      fh->offset += *n;
      return *n;
    }
    case Sys::kWrite: {
      FileHandle* fh = fd_handle(static_cast<int64_t>(req.a0));
      if (fh == nullptr) {
        return RetOf(Err::kBadHandle);
      }
      if (fh->is_console) {
        if (port_.console() != nullptr) {
          port_.console()->Write(
              std::string_view(reinterpret_cast<const char*>(req.in.data()), req.in.size()));
        }
        return static_cast<SyscallRet>(req.in.size());
      }
      auto n = vfs_->WriteAt(fh->inode, fh->offset, req.in);
      if (!n.ok()) {
        return RetOf(n.error());
      }
      fh->offset += *n;
      return *n;
    }
    case Sys::kSeek: {
      FileHandle* fh = fd_handle(static_cast<int64_t>(req.a0));
      if (fh == nullptr) {
        return RetOf(Err::kBadHandle);
      }
      fh->offset = req.a1;
      return static_cast<SyscallRet>(fh->offset);
    }
    case Sys::kUnlink: {
      const std::string_view file(reinterpret_cast<const char*>(req.in.data()), req.in.size());
      const Err err = vfs_->Unlink(file);
      return err == Err::kNone ? 0 : RetOf(err);
    }
    case Sys::kStat: {
      FileHandle* fh = fd_handle(static_cast<int64_t>(req.a0));
      if (fh == nullptr || fh->is_console) {
        return RetOf(Err::kBadHandle);
      }
      auto stat = vfs_->Stat(fh->inode);
      if (!stat.ok()) {
        return RetOf(stat.error());
      }
      return static_cast<SyscallRet>(stat->size);
    }
    default:
      return RetOf(Err::kNotSupported);
  }
}

void Os::EndProcess(Process& proc) {
  proc.state = ProcState::kZombie;
  for (const uint16_t port : proc.bound_ports) {
    (void)net_->Unbind(port);
  }
  proc.bound_ports.clear();
}

SyscallRet Os::DoNetSyscall(Process& proc, SyscallReq& req) {
  switch (req.nr) {
    case Sys::kNetBind: {
      const auto port = static_cast<uint16_t>(req.a0);
      const Err err = net_->Bind(port);
      if (err != Err::kNone) {
        return RetOf(err);
      }
      proc.bound_ports.push_back(port);
      return 0;
    }
    case Sys::kNetSend: {
      const Err err = net_->Send(static_cast<uint16_t>(req.a0), static_cast<uint16_t>(req.a1),
                                 req.in);
      return err == Err::kNone ? static_cast<SyscallRet>(req.in.size()) : RetOf(err);
    }
    case Sys::kNetRecv: {
      auto payload = net_->Recv(static_cast<uint16_t>(req.a0));
      if (!payload.ok()) {
        return RetOf(payload.error());
      }
      const size_t n = std::min(req.out.size(), payload->size());
      std::memcpy(req.out.data(), payload->data(), n);
      return static_cast<SyscallRet>(n);
    }
    default:
      return RetOf(Err::kNotSupported);
  }
}

// --- Convenience wrappers ---------------------------------------------------

SyscallRet Os::Null(ProcessId pid) {
  SyscallReq req;
  req.nr = Sys::kNull;
  return Syscall(pid, req);
}

SyscallRet Os::GetPid(ProcessId pid) {
  SyscallReq req;
  req.nr = Sys::kGetPid;
  return Syscall(pid, req);
}

SyscallRet Os::GetTime(ProcessId pid) {
  SyscallReq req;
  req.nr = Sys::kGetTime;
  return Syscall(pid, req);
}

SyscallRet Os::Yield(ProcessId pid) {
  SyscallReq req;
  req.nr = Sys::kYield;
  return Syscall(pid, req);
}

SyscallRet Os::Exit(ProcessId pid, int64_t code) {
  SyscallReq req;
  req.nr = Sys::kExit;
  req.a0 = static_cast<uint64_t>(code);
  return Syscall(pid, req);
}

SyscallRet Os::Create(ProcessId pid, std::string_view file) {
  SyscallReq req;
  req.nr = Sys::kCreate;
  req.in = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(file.data()), file.size());
  return Syscall(pid, req);
}

SyscallRet Os::Open(ProcessId pid, std::string_view file) {
  SyscallReq req;
  req.nr = Sys::kOpen;
  req.in = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(file.data()), file.size());
  return Syscall(pid, req);
}

SyscallRet Os::Close(ProcessId pid, int64_t fd) {
  SyscallReq req;
  req.nr = Sys::kClose;
  req.a0 = static_cast<uint64_t>(fd);
  return Syscall(pid, req);
}

SyscallRet Os::Read(ProcessId pid, int64_t fd, std::span<uint8_t> out) {
  SyscallReq req;
  req.nr = Sys::kRead;
  req.a0 = static_cast<uint64_t>(fd);
  req.out = out;
  return Syscall(pid, req);
}

SyscallRet Os::Write(ProcessId pid, int64_t fd, std::span<const uint8_t> in) {
  SyscallReq req;
  req.nr = Sys::kWrite;
  req.a0 = static_cast<uint64_t>(fd);
  req.in = in;
  return Syscall(pid, req);
}

SyscallRet Os::Seek(ProcessId pid, int64_t fd, uint64_t offset) {
  SyscallReq req;
  req.nr = Sys::kSeek;
  req.a0 = static_cast<uint64_t>(fd);
  req.a1 = offset;
  return Syscall(pid, req);
}

SyscallRet Os::Unlink(ProcessId pid, std::string_view file) {
  SyscallReq req;
  req.nr = Sys::kUnlink;
  req.in = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(file.data()), file.size());
  return Syscall(pid, req);
}

SyscallRet Os::NetBind(ProcessId pid, uint16_t port) {
  SyscallReq req;
  req.nr = Sys::kNetBind;
  req.a0 = port;
  return Syscall(pid, req);
}

SyscallRet Os::NetSend(ProcessId pid, uint16_t dst_port, uint16_t src_port,
                       std::span<const uint8_t> payload) {
  SyscallReq req;
  req.nr = Sys::kNetSend;
  req.a0 = dst_port;
  req.a1 = src_port;
  req.in = payload;
  return Syscall(pid, req);
}

SyscallRet Os::NetRecv(ProcessId pid, uint16_t port, std::span<uint8_t> out) {
  SyscallReq req;
  req.nr = Sys::kNetRecv;
  req.a0 = port;
  req.out = out;
  return Syscall(pid, req);
}

}  // namespace minios
