// The MiniOS kernel: processes, the system-call implementation, and the
// glue to its VFS and network stack.
//
// MiniOS plays the role Linux plays in the paper's systems: the legacy OS
// personality hosted either directly on hardware (native port), as a
// paravirtualized guest of the VMM (vmm port, like XenoLinux), or as a
// user-level server on the microkernel (ukernel port, like L4Linux
// [HHL+97]). The kernel code below is identical in all three cases; only
// the ArchPort differs.
//
// Cost conventions: the *port* charges the entry path (trap / IPC /
// reflect) and the user-data copies across its transport; SyscallImpl
// charges only OS-internal work. This keeps the three ports comparable
// without double-charging.

#ifndef UKVM_SRC_OS_KERNEL_H_
#define UKVM_SRC_OS_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/os/arch_if.h"
#include "src/os/netstack.h"
#include "src/os/process.h"
#include "src/os/syscall.h"
#include "src/os/vfs.h"
#include "src/ukernel/sched.h"

namespace minios {

// Converts between the syscall return convention and error codes.
inline SyscallRet RetOf(ukvm::Err err) { return -static_cast<SyscallRet>(err); }
inline ukvm::Err ErrOf(SyscallRet ret) {
  return ret >= 0 ? ukvm::Err::kNone : static_cast<ukvm::Err>(-ret);
}

class Os {
 public:
  Os(hwsim::Machine& machine, ArchPort& port, std::string name);

  // Mounts (or formats, if `format_disk`) the filesystem and brings up the
  // network stack.
  ukvm::Err Boot(bool format_disk);

  const std::string& name() const { return name_; }
  ArchPort& port() { return port_; }
  Vfs& vfs() { return *vfs_; }
  NetStack& net() { return *net_; }

  // --- Process management ----------------------------------------------------

  ukvm::Result<ukvm::ProcessId> Spawn(std::string proc_name, uint32_t priority = 128);
  Process* FindProcess(ukvm::ProcessId pid);

  // --- Application-facing system calls ---------------------------------------
  // Each routes through the port's entry path (this is the measured edge).

  SyscallRet Syscall(ukvm::ProcessId pid, SyscallReq& req);

  SyscallRet Null(ukvm::ProcessId pid);
  SyscallRet GetPid(ukvm::ProcessId pid);
  SyscallRet GetTime(ukvm::ProcessId pid);
  SyscallRet Yield(ukvm::ProcessId pid);
  SyscallRet Exit(ukvm::ProcessId pid, int64_t code);

  SyscallRet Create(ukvm::ProcessId pid, std::string_view file);
  SyscallRet Open(ukvm::ProcessId pid, std::string_view file);
  SyscallRet Close(ukvm::ProcessId pid, int64_t fd);
  SyscallRet Read(ukvm::ProcessId pid, int64_t fd, std::span<uint8_t> out);
  SyscallRet Write(ukvm::ProcessId pid, int64_t fd, std::span<const uint8_t> in);
  SyscallRet Seek(ukvm::ProcessId pid, int64_t fd, uint64_t offset);
  SyscallRet Unlink(ukvm::ProcessId pid, std::string_view file);

  SyscallRet NetBind(ukvm::ProcessId pid, uint16_t port);
  SyscallRet NetSend(ukvm::ProcessId pid, uint16_t dst_port, uint16_t src_port,
                     std::span<const uint8_t> payload);
  SyscallRet NetRecv(ukvm::ProcessId pid, uint16_t port, std::span<uint8_t> out);

  // --- Cooperative process scheduling ------------------------------------------
  // MiniOS runs multiple processes by time-multiplexing step functions: a
  // program's step executes one quantum of work (issuing syscalls as it
  // goes) and returns true when the process is finished.

  using ProgramStep = std::function<bool()>;

  // Attaches a program to an existing process and makes it runnable.
  ukvm::Err AttachProgram(ukvm::ProcessId pid, ProgramStep step);

  // Priority round-robin over runnable programs until all finish (finished
  // processes are Exited). Returns the number of quanta executed; stops at
  // `max_quanta` as a runaway guard.
  uint64_t RunPrograms(uint64_t max_quanta = 1'000'000);

  // --- Kernel-side entry (called by ArchPort implementations) ------------------

  SyscallRet SyscallImpl(ukvm::ProcessId pid, SyscallReq& req);

  uint64_t total_syscalls() const { return total_syscalls_; }

 private:
  SyscallRet DoFileSyscall(Process& proc, SyscallReq& req);
  SyscallRet DoNetSyscall(Process& proc, SyscallReq& req);
  // The one place a process becomes a zombie (its exit syscall, or its
  // program finishing): the ports it bound are released, uncharged.
  void EndProcess(Process& proc);

  hwsim::Machine& machine_;
  ArchPort& port_;
  std::string name_;
  std::unique_ptr<Vfs> vfs_;
  std::unique_ptr<NetStack> net_;

  std::unordered_map<ukvm::ProcessId, std::unique_ptr<Process>> processes_;
  std::unordered_map<ukvm::ProcessId, ProgramStep> programs_;
  ukern::BasicRunQueue<ukvm::ProcessId> ready_;
  uint32_t next_pid_ = 1;
  uint64_t total_syscalls_ = 0;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_KERNEL_H_
