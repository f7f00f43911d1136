// Microkernel port: MiniOS as a user-level OS server, L4Linux-style.
//
// Paper §3.2: "A Xen-based system performs essentially the same number of
// IPC operations as a comparable microkernel-based system (such as
// L4Linux)". This port is that comparable system: every application system
// call is one IPC call from the application's thread to the OS server
// (request + reply, with user data as string items), and the OS server in
// turn uses IPC to reach the user-level block and network driver servers.

#ifndef UKVM_SRC_OS_PORTS_UKERNEL_PORT_H_
#define UKVM_SRC_OS_PORTS_UKERNEL_PORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/os/arch_if.h"
#include "src/os/blk_protocol.h"
#include "src/ukernel/kernel.h"

namespace minios {

// Everything the stack wires up before handing the port its identity.
struct UkernelPortWiring {
  ukern::Kernel* kernel = nullptr;

  // Application identity: the thread whose IPC reaches the OS server.
  ukvm::ThreadId app_thread;
  // The OS server thread (this port installs its handler).
  ukvm::ThreadId os_thread;
  // A thread of the OS task that receives inbound packets from the net
  // server (this port installs its handler too).
  ukvm::ThreadId net_rx_thread;

  // Pre-mapped transfer windows (and registered receive buffers).
  hwsim::Vaddr app_window = 0;
  uint32_t app_window_len = 0;
  hwsim::Vaddr srv_window = 0;
  uint32_t srv_window_len = 0;

  // User-level servers.
  ukvm::ThreadId blk_server;
  ukvm::ThreadId net_server;
};

// The status of a server's reply: servers answer in the OS syscall
// convention, so a kernel-level status comes first (kDead when the server
// died mid-call), then regs[0] < 0 as -Err.
ukvm::Err ReplyStatus(const ukern::IpcMessage& reply);

class UkernelPort : public ArchPort {
 public:
  explicit UkernelPort(hwsim::Machine& machine, UkernelPortWiring wiring);
  ~UkernelPort() override;

  const char* name() const override { return "ukernel"; }
  SyscallRet InvokeSyscall(Os& os, ukvm::ProcessId pid, SyscallReq& req) override;
  NetDevice* net() override;
  BlockDevice* block() override;
  ConsoleDevice* console() override;

  const std::vector<std::string>& console_log() const { return console_log_; }

  // Bytes the app/server windows can carry per transfer.
  uint32_t max_transfer() const;

  // Re-points the port at a restarted server (microkernel multiserver
  // recovery: a crashed driver server is simply replaced).
  void SetBlockServer(ukvm::ThreadId server);
  void SetNetServer(ukvm::ThreadId server);

  // --- Crash recovery (E19) -------------------------------------------------
  //
  // Block writes carry a monotonic journal id in regs[3] and the journal's
  // low-water mark in regs[4], and stay journaled until the server
  // genuinely answers; a kernel-level kDead/kBadHandle reply (server task
  // destroyed mid-call) keeps the entry for replay.

  // Re-issues every journaled (unanswered) write with its original id
  // against the current block server; the stack's BlkStore suppresses
  // duplicates that landed before the crash. Returns the number of entries
  // resolved; stops early if the server dies again.
  uint64_t ReplayBlockJournal();

  // Journaled writes still awaiting a genuine server answer, and the count
  // of writes answered success (exactly-once accounting).
  const BlkJournal& blk_journal() const;

 private:
  class IpcNet;
  class IpcBlock;
  class PortConsole;

  // The OS server's IPC dispatch (installed on wiring.os_thread).
  ukern::IpcMessage OsServerEntry(ukvm::ThreadId sender, ukern::IpcMessage msg);
  // The rx thread's IPC dispatch (installed on wiring.net_rx_thread).
  ukern::IpcMessage NetRxEntry(ukvm::ThreadId sender, ukern::IpcMessage msg);

  // Zero-cost simulation plumbing: place/fetch bytes in a task's window.
  // (The charged transfer is the kernel's string copy.)
  void PokeWindow(ukvm::ThreadId thread, hwsim::Vaddr va, std::span<const uint8_t> bytes);

  hwsim::Machine& machine_;
  UkernelPortWiring w_;
  Os* os_ = nullptr;

  std::unique_ptr<IpcNet> net_dev_;
  std::unique_ptr<IpcBlock> block_dev_;
  std::unique_ptr<PortConsole> console_dev_;
  std::vector<std::string> console_log_;
  uint32_t req_syscall_name_ = 0;  // E22 "os.syscall" origin
};

}  // namespace minios

#endif  // UKVM_SRC_OS_PORTS_UKERNEL_PORT_H_
