// IPC protocol labels shared between the microkernel port (client side) and
// the user-level servers in the microkernel stack (server side).
//
// Everything here rides on the one IPC primitive: the OS syscall protocol
// (L4Linux-style syscall redirection), the block-service protocol (the
// microkernel counterpart of blkfront/blkback), and the net-service
// protocol (counterpart of netfront/netback).

#ifndef UKVM_SRC_OS_PORTS_PROTOCOLS_H_
#define UKVM_SRC_OS_PORTS_PROTOCOLS_H_

#include <cstdint>

namespace minios {

// regs[0] labels.
inline constexpr uint64_t kOsSyscallLabel = 0x10;  // app -> OS server
inline constexpr uint64_t kBlkInfoLabel = 0x20;    // -> reply [1]=block_size [2]=capacity
inline constexpr uint64_t kBlkReadLabel = 0x21;    // [1]=lba [2]=count -> reply string=data
inline constexpr uint64_t kBlkWriteLabel = 0x22;   // [1]=lba [2]=count, string=data
                                                   // [3]=journal id [4]=journal
                                                   // low-water mark (E19)
inline constexpr uint64_t kNetAttachLabel = 0x30;  // [1]=rx thread id
inline constexpr uint64_t kNetSendLabel = 0x31;    // string=wire packet
inline constexpr uint64_t kNetRxLabel = 0x32;      // server -> rx thread, string=packet

// Syscall message layout (label kOsSyscallLabel):
//   regs[1]=pid  regs[2]=syscall nr  regs[3..5]=a0..a2
//   regs[6]=in length (string item)  regs[7]=out length requested
// Reply: regs[0]=SyscallRet (two's complement), string=out data.

}  // namespace minios

#endif  // UKVM_SRC_OS_PORTS_PROTOCOLS_H_
