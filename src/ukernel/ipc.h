// IPC message format: the microkernel's single primitive (paper §2.2).
//
// One message can simultaneously carry all three orthogonal roles the paper
// identifies: (1) the kernel-controlled control transfer is the delivery
// itself, (2) data transfer rides in the register words and the optional
// string item, (3) resource delegation rides in map/grant items. The VMM in
// src/vmm needs a distinct mechanism for each of these (experiment E7).

#ifndef UKVM_SRC_UKERNEL_IPC_H_
#define UKVM_SRC_UKERNEL_IPC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/ids.h"
#include "src/hw/memory.h"

namespace ukern {

// Resource delegation item: maps `pages` pages from the sender's address
// space at `snd_base` into the receiver's at `rcv_base`. With `grant` the
// sender's own mapping is removed (ownership moves); otherwise the receiver
// gets a derived mapping revocable via Unmap.
struct MapItem {
  hwsim::Vaddr snd_base = 0;
  hwsim::Vaddr rcv_base = 0;
  uint32_t pages = 1;
  bool writable = false;
  bool grant = false;
};

// String item: the kernel copies `len` bytes from the sender's virtual
// address `snd_base` to the receiver's declared receive buffer.
struct StringItem {
  hwsim::Vaddr snd_base = 0;
  uint32_t len = 0;
};

inline constexpr size_t kIpcRegWords = 8;
inline constexpr uint32_t kMaxStringBytes = 1u << 20;

struct IpcMessage {
  // Short data in (virtual) registers; regs[0] conventionally the opcode.
  std::array<uint64_t, kIpcRegWords> regs{};
  uint32_t reg_count = 0;  // at most kIpcRegWords, or the kernel answers kInvalidArgument

  // At most one string item per message (as in L4 X.2 simple usage).
  StringItem string;
  bool has_string = false;

  std::vector<MapItem> map_items;

  // Simulation convenience: a mirror of the bytes the kernel landed in the
  // receiver's registered receive buffer. The authoritative copy is in
  // simulated physical memory (and was paid for in cycles); this field just
  // spares handlers a second lookup. Empty when no string was transferred.
  std::vector<uint8_t> string_data;

  // Error the kernel reports to the caller in the reply (kNone on success).
  ukvm::Err status = ukvm::Err::kNone;

  // True when the whole payload fits in registers: a register count the
  // ABI can carry, no string item and no map/grant items. This is the
  // message shape the E21 Liedtke fast path accepts without falling back
  // (string items may still qualify via the temporary-mapping window;
  // delegation never does).
  bool IsRegisterOnly() const {
    return reg_count <= kIpcRegWords && !has_string && map_items.empty();
  }

  static IpcMessage Short(uint64_t op) {
    IpcMessage msg;
    msg.regs[0] = op;
    msg.reg_count = 1;
    return msg;
  }
  static IpcMessage Short(uint64_t op, uint64_t a1) {
    IpcMessage msg = Short(op);
    msg.regs[1] = a1;
    msg.reg_count = 2;
    return msg;
  }
  static IpcMessage Short(uint64_t op, uint64_t a1, uint64_t a2) {
    IpcMessage msg = Short(op, a1);
    msg.regs[2] = a2;
    msg.reg_count = 3;
    return msg;
  }
  static IpcMessage Short(uint64_t op, uint64_t a1, uint64_t a2, uint64_t a3) {
    IpcMessage msg = Short(op, a1, a2);
    msg.regs[3] = a3;
    msg.reg_count = 4;
    return msg;
  }
  static IpcMessage Error(ukvm::Err err) {
    IpcMessage msg;
    msg.status = err;
    return msg;
  }
};

// A server thread's message handler: receives the sender and the request,
// returns the reply. Handlers run in the receiver's protection domain; the
// kernel performs the domain switches around the invocation.
using IpcHandler = std::function<IpcMessage(ukvm::ThreadId sender, IpcMessage request)>;

// Asynchronous notification handler (L4-style notification bits).
using NotifyHandler = std::function<void(uint64_t bits)>;

}  // namespace ukern

#endif  // UKVM_SRC_UKERNEL_IPC_H_
