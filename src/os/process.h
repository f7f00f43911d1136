// MiniOS processes and file descriptors.

#ifndef UKVM_SRC_OS_PROCESS_H_
#define UKVM_SRC_OS_PROCESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/ids.h"

namespace minios {

enum class ProcState : uint8_t { kReady, kRunning, kBlocked, kZombie };

struct FileHandle {
  bool open = false;
  bool is_console = false;
  uint32_t inode = 0;
  uint64_t offset = 0;
};

struct Process {
  ukvm::ProcessId pid;
  std::string name;
  ProcState state = ProcState::kReady;
  int64_t exit_code = 0;
  uint32_t priority = 128;
  std::vector<FileHandle> fds;  // fd 0/1 are the console
  std::vector<uint16_t> bound_ports;  // unbound when the process ends
  uint64_t syscalls_made = 0;

  Process(ukvm::ProcessId pid_in, std::string name_in)
      : pid(pid_in), name(std::move(name_in)), fds(2) {
    fds[0].open = true;
    fds[0].is_console = true;
    fds[1].open = true;
    fds[1].is_console = true;
  }
};

}  // namespace minios

#endif  // UKVM_SRC_OS_PROCESS_H_
