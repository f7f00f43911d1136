// The L4-style microkernel.
//
// Liedtke's program, quoted in §2.1 of the paper: "minimize the kernel and
// implement whatever possible outside of the kernel". The kernel therefore
// provides only: tasks (address spaces), threads, synchronous IPC with
// string and map/grant items (the single primitive of §2.2), recursive
// unmap, user-level pager invocation on page faults, and interrupt
// conversion to IPC. Everything else — drivers, file service, the guest
// OS personality — lives in user-level servers (see src/stacks).
//
// Execution model: servers are passive objects; Kernel::Call performs the
// full architectural journey (trap in, validate, transfer, address-space
// switch to the receiver, handler runs in the receiver's domain, reply
// transfers back) with every step charged to the cost model and recorded in
// the crossing ledger.

#ifndef UKVM_SRC_UKERNEL_KERNEL_H_
#define UKVM_SRC_UKERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/hw/machine.h"
#include "src/hw/trap.h"
#include "src/ukernel/ipc.h"
#include "src/ukernel/mapdb.h"
#include "src/ukernel/sched.h"
#include "src/ukernel/task.h"
#include "src/ukernel/thread.h"

namespace ukern {

// Syscall numbers — the entire kernel ABI (experiment E7 contrasts this
// with the VMM's hypercall table).
enum class SyscallNr : uint32_t {
  kIpc = 0,          // send/receive/call, with string and map items
  kUnmap = 1,        // revoke mappings recursively
  kThreadControl = 2,
  kTaskControl = 3,
  kIrqControl = 4,
  kSchedule = 5,
};
inline constexpr uint32_t kSyscallCount = 6;

// Which IPC path the kernel takes: the one knob behind E21 and E23.
enum class IpcPath : uint8_t {
  // Every IPC through the full trap path.
  kSlow,
  // E21: a short Call to a waiting receiver takes the Liedtke fast path —
  // fast trap entry/exit, register transfer at zero copy cost (a short
  // message stays in physical registers across the switch), a direct
  // process switch donating the caller's time slice, lazy run-queue fixup,
  // and a temporary-mapping window for single-page string items. Anything
  // else (map/grant items, long or faulting strings, a receiver that is
  // not blocked in receive) falls back to the slow path unchanged.
  kCallOnly,
  // E23: the whole Liedtke family. On top of kCallOnly, a register-only
  // reply fuses with the server's next receive into one crossing
  // (reply-wait), register-only Send, Notify to a waiting receiver and the
  // pager's fault IPC ride the fast stubs, and each vCPU keeps its string
  // window pinned across a same-page burst.
  kFamily,
};

class Kernel : public hwsim::TrapHandler {
 public:
  explicit Kernel(hwsim::Machine& machine);
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  hwsim::Machine& machine() { return machine_; }
  ukvm::DomainId kernel_domain() const { return kKernelDomain; }

  // --- Task and thread management (TaskControl / ThreadControl) ------------

  // Creates a task whose page faults are sent to `pager` (invalid = none;
  // faults then kill the faulting thread). The first task created becomes
  // the privileged root task (sigma0/root server) allowed to use
  // RootMapPhys.
  ukvm::Result<ukvm::DomainId> CreateTask(ukvm::ThreadId pager);
  ukvm::Err DestroyTask(ukvm::DomainId task);

  ukvm::Result<ukvm::ThreadId> CreateThread(ukvm::DomainId task, uint32_t priority,
                                            IpcHandler handler);
  ukvm::Err DestroyThread(ukvm::ThreadId thread);
  ukvm::Err SetThreadHandler(ukvm::ThreadId thread, IpcHandler handler);
  ukvm::Err SetNotifyHandler(ukvm::ThreadId thread, NotifyHandler handler);
  ukvm::Err SetRecvBuffer(ukvm::ThreadId thread, hwsim::Vaddr buffer, uint32_t len);
  ukvm::Err SetPager(ukvm::DomainId task, ukvm::ThreadId pager);

  // Marks a task as a Liedtke small space [Lie95] (cited by the paper as
  // the microkernel answer to address-space-switch costs): switches into it
  // use segment remapping instead of a page-table reload + TLB flush.
  // Requires segmentation or ARM's FCSE PID relocation; kNotSupported
  // otherwise.
  ukvm::Err SetSmallSpace(ukvm::DomainId task, bool small);

  bool TaskAlive(ukvm::DomainId task) const;
  bool ThreadAlive(ukvm::ThreadId thread) const;
  ukvm::Result<ukvm::DomainId> TaskOf(ukvm::ThreadId thread) const;

  // --- IPC (the single primitive) ------------------------------------------

  // Synchronous call: delivers `msg` to `dest`, runs its handler in the
  // receiver's protection domain, returns the reply to `caller`. The reply's
  // `status` carries kernel-detected errors (dead partner, malformed
  // message, bad transfer).
  IpcMessage Call(ukvm::ThreadId caller, ukvm::ThreadId dest, IpcMessage msg);

  // --- E21/E23: the L4 fast-path family ---------------------------------------

  // Default kSlow; kCallOnly reproduces the E21 configuration exactly
  // (bench_e21 pins it so its committed numbers stay bit-identical).
  void SetIpcPath(IpcPath path) { ipc_path_ = path; }
  IpcPath ipc_path() const { return ipc_path_; }

  struct FastpathStats {
    uint64_t taken = 0;               // calls whose request leg went fast
    uint64_t slow_replies = 0;        // fast request, complex reply fell back
    uint64_t string_windows = 0;      // strings moved via the temp-map window
    uint64_t fallback_not_ready = 0;  // receiver not waiting / no handler / dead
    uint64_t fallback_map = 0;        // map/grant items present
    uint64_t fallback_string = 0;     // string too long, page-crossing, or faulting
    uint64_t lazy_fixups = 0;         // stale run-queue entries reconciled
    // E23 family counters.
    uint64_t replywait_coalesced = 0;  // reply legs fused with the next receive
    uint64_t send_fast = 0;            // sends delivered through the fast stubs
    uint64_t send_slow = 0;            // family-path sends that fell back
    uint64_t notify_fast = 0;          // notifies delivered through the fast stubs
    uint64_t notify_slow = 0;          // family-path notifies that fell back
    uint64_t fault_fast = 0;           // pager fault IPCs on the fast stubs
    uint64_t window_pins = 0;          // string PTE writes skipped via the pinned window
  };
  const FastpathStats& fastpath_stats() const { return fastpath_stats_; }

  // Test-only mutation hook (E21 self-test): a fast path that "forgets" its
  // reply crossing must be caught by the ledger lint as an unbalanced pair.
  void TestSkipFastpathReplyRecord(bool skip) { test_skip_fastpath_reply_record_ = skip; }
  // E23 mutation hooks, one per new discipline: a coalesced reply that drops
  // its `l4.ipc.replywait` crossing must be caught by the ledger lint; a
  // fast notify that delivers only the fresh bits (dropping the latched
  // ones) must be caught by the differential fast-vs-slow fuzzer.
  void TestSkipReplyWaitRecord(bool skip) { test_skip_replywait_record_ = skip; }
  void TestSkipNotifyLatch(bool skip) { test_skip_notify_latch_ = skip; }

  // One-way send (no reply transfer back).
  ukvm::Err Send(ukvm::ThreadId caller, ukvm::ThreadId dest, IpcMessage msg);

  // Asynchronous notification bits (delivered immediately to the
  // destination's notify handler, in its domain).
  ukvm::Err Notify(ukvm::ThreadId dest, uint64_t bits);

  // --- Memory management ----------------------------------------------------

  // Root-task-only: installs an initial physical mapping (sigma0 building
  // its idempotent view of memory at boot).
  ukvm::Err RootMapPhys(ukvm::DomainId task, hwsim::Vaddr va, hwsim::Frame frame, bool writable);
  // Root-task-only: removes initial mappings at `vas`, with any mapping
  // derived from them (sigma0 taking back the frames of a dead task).
  ukvm::Err RootUnmapPhys(ukvm::DomainId task, std::span<const hwsim::Vaddr> vas);

  // Revokes `pages` pages at `va` in `task`'s space: derived mappings always;
  // the task's own mapping too when `include_self`.
  ukvm::Err Unmap(ukvm::DomainId task, hwsim::Vaddr va, uint32_t pages, bool include_self);

  // Resolves `va` for `thread`, invoking its task's pager via IPC on a page
  // fault (the external-pager protocol of §3.1); kFault if unresolvable.
  ukvm::Err TouchPage(ukvm::ThreadId thread, hwsim::Vaddr va, bool write);

  // Copies between a thread's virtual memory and a caller buffer, resolving
  // faults through the pager. These are what OS servers use to access their
  // clients' memory.
  ukvm::Err CopyIn(ukvm::ThreadId thread, hwsim::Vaddr va, std::span<uint8_t> out);
  ukvm::Err CopyOut(ukvm::ThreadId thread, hwsim::Vaddr va, std::span<const uint8_t> in);

  // --- Interrupts (IrqControl) ----------------------------------------------

  // Routes `line` to `handler_thread`: on delivery the kernel synthesizes an
  // IPC with label kIrqLabel and the line number (interrupts become IPC —
  // the microkernel answer to VMM primitive #9 of §2.2).
  ukvm::Err AssociateIrq(ukvm::IrqLine line, ukvm::ThreadId handler_thread);

  static constexpr uint64_t kIrqLabel = 0xf000'0000'0000'0000ull;
  static constexpr uint64_t kPageFaultLabel = 0xf100'0000'0000'0000ull;

  // --- Context activation (what the dispatcher does) -------------------------

  // Switches the CPU to `thread`'s context (address space, accounting
  // domain, user mode), charging a context switch. Used by stacks to run
  // client code.
  ukvm::Err ActivateThread(ukvm::ThreadId thread);
  ukvm::ThreadId current_thread() const { return current_thread_; }

  RunQueue& run_queue() { return run_queue_; }

  // --- hwsim::TrapHandler -----------------------------------------------------

  void HandleTrap(hwsim::TrapFrame& frame) override;
  void HandleInterrupt(ukvm::IrqLine line) override;

  // --- Introspection ----------------------------------------------------------

  Task* FindTask(ukvm::DomainId id);
  Tcb* FindThread(ukvm::ThreadId id);
  MapDb& mapdb() { return mapdb_; }
  uint64_t ipc_calls() const { return ipc_calls_; }

  // Visits every live task (order unspecified); for the invariant auditor,
  // whose space views hold mutable table pointers, hence the non-const refs.
  void ForEachTask(const std::function<void(Task&)>& fn);

 private:
  static constexpr ukvm::DomainId kKernelDomain{0};

  struct MechanismIds {
    uint32_t ipc_call;
    uint32_t ipc_reply;
    uint32_t ipc_replywait;
    uint32_t ipc_send;
    uint32_t ipc_string;
    uint32_t ipc_map;
    uint32_t ipc_notify;
    uint32_t unmap;
    uint32_t irq_ipc;
    uint32_t pf_ipc;
  };

  // E17 trace ids (span names and profiler frames), interned at
  // construction so the IPC hot path never allocates.
  struct TraceIds {
    uint32_t call_name = 0;
    uint32_t call_frame = 0;
    uint32_t send_name = 0;
    uint32_t send_frame = 0;
    uint32_t notify_name = 0;
    uint32_t notify_frame = 0;
    uint32_t unmap_name = 0;
    uint32_t unmap_frame = 0;
    uint32_t irq_name = 0;
    uint32_t irq_frame = 0;
    uint32_t pf_name = 0;
    uint32_t pf_frame = 0;
  };

  // The one dead-partner test: a destroyed thread, or a thread of a
  // destroyed task (DestroyTask marks every thread of the task dead, and
  // nothing revives one). IPC to or from it fails with kDead.
  bool ThreadDead(const Tcb& tcb) const { return tcb.state == ThreadState::kDead; }

  // How a thread enters and leaves the kernel: the full trap saves the
  // whole frame (trap_entry / trap_return); the short-IPC fast stub saves
  // none (fast_trap_entry / fast_trap_return).
  enum class Stub : uint8_t { kTrap, kFast };

  // Charges kernel entry through `stub` and sets kernel context.
  void EnterKernel(Stub stub);
  // Charges the return through `stub` to `thread`'s user context and
  // switches to it; with no live thread to return to, the kernel idles.
  void LeaveKernelTo(ukvm::ThreadId thread, Stub stub);

  // The one handler switch, shared by every IPC leg (Call, Send, Notify,
  // pager fault, interrupt): leaves the kernel into `thread` through
  // `stub`, runs `body` in its domain, and re-enters through the same stub
  // with the interrupted thread current again. A fast-stub switch donates
  // the caller's time slice and leaves the run queue stale (lazy
  // scheduling). `body` returns whether to re-enter: false when the stub
  // that carried the request is still resident (E23 reply-wait).
  template <typename Body>
  void RunInThread(ukvm::ThreadId thread, Stub stub, Body&& body);

  // Runs `dest`'s IPC handler on `msg`, counts the message, and parks
  // `dest` back in receive; called inside RunInThread.
  IpcMessage RunHandler(Tcb& dest, ukvm::ThreadId sender, IpcMessage&& msg);

  // kNone when `caller` may send `msg` to `dest`: both exist, both live,
  // and the message's register count fits the ABI.
  ukvm::Err CheckIpc(const Tcb* caller, const Tcb* dest, const IpcMessage& msg) const;

  // Copies message registers (charging per-word cost).
  void ChargeRegTransfer(const IpcMessage& msg);

  // Performs the string transfer from `sender` to `receiver`'s registered
  // receive buffer; returns bytes moved or an error.
  ukvm::Result<uint64_t> TransferString(Tcb& sender, Tcb& receiver, const IpcMessage& msg,
                                        IpcMessage& delivered);

  // Applies map/grant `items` from task `from` to task `to`, recording one
  // l4.ipc.map crossing per item; stops at the first item that fails.
  ukvm::Err TransferMapItems(ukvm::DomainId from, ukvm::DomainId to,
                             const std::vector<MapItem>& items);

  // The slow reply leg: transfers `reply` from `server` back to `caller`
  // and leaves the kernel through the full trap. Serves the slow Call and
  // a fast Call whose reply is not register-only.
  IpcMessage ReplyLeg(Tcb& server, Tcb& caller, IpcMessage reply);

  // --- E21/E23 fast-path internals --------------------------------------------

  enum class FastpathVerdict : uint8_t { kEligible, kNotReady, kMapItem, kString };
  // Pure lookups, no charging: decides whether this Call may take the fast
  // path, or why it must not (the verdict indexes the fallback counters).
  FastpathVerdict ClassifyFastpath(ukvm::ThreadId caller, ukvm::ThreadId dest,
                                   const IpcMessage& msg);
  // A string qualifies for the temporary-mapping window iff it fits the
  // receive buffer untruncated, stays within one page on both sides, and
  // both PTEs are already present (no pager round-trip needed).
  bool FastStringEligible(Tcb& sender, Tcb& receiver, const IpcMessage& msg);
  // One kernel-window PTE write + one charged copy; only called when
  // FastStringEligible said yes. Returns bytes moved.
  uint64_t FastTransferString(Tcb& sender, Tcb& receiver, const IpcMessage& msg,
                              IpcMessage& delivered);
  // E23: drops any per-vCPU pinned string window covering (space, vpn) —
  // revocation and grant both move the frame out from under the pin.
  void InvalidateStringWindow(const hwsim::PageTable& space, hwsim::Vaddr vpn);
  // The real schedule decision reconciling run-queue entries the fast
  // path left stale (lazy scheduling).
  void DrainLazyRunQueue();

  // Clears a PTE, with TLB maintenance costs. Queues the page for the next
  // FlushShootdowns round so remote vCPUs drop it too.
  void RevokePte(ukvm::DomainId task, hwsim::Vaddr vpn);

  // Kernel-mediated unmap IPIs: one machine shootdown round per space
  // covering every revocation queued since the last flush. Unmap and
  // DestroyTask call this once per operation, amortising the IPI cost over
  // the whole revocation batch.
  void FlushShootdowns();

  // ResolveFault mints an E22 request-trace origin ("l4.pf") when no request
  // is already in flight, then delegates to DoResolveFault for the actual
  // pager protocol.
  ukvm::Err ResolveFault(ukvm::ThreadId thread, hwsim::Vaddr va, bool write);
  ukvm::Err DoResolveFault(ukvm::ThreadId thread, hwsim::Vaddr va, bool write);

  hwsim::Machine& machine_;
  MechanismIds mech_;
  TraceIds trace_;

  std::unordered_map<ukvm::DomainId, std::unique_ptr<Task>> tasks_;
  std::unordered_map<ukvm::ThreadId, std::unique_ptr<Tcb>> threads_;
  std::unordered_map<ukvm::IrqLine, ukvm::ThreadId> irq_routes_;
  MapDb mapdb_{machine_};
  RunQueue run_queue_;

  // Revocations awaiting their cross-vCPU shootdown round (space is
  // pointer identity only — flushed before any space can die).
  std::vector<std::pair<const hwsim::PageTable*, hwsim::Vaddr>> pending_shootdown_;

  uint32_t next_task_id_ = 1;  // 0 is the kernel itself
  uint32_t next_thread_id_ = 1;
  ukvm::DomainId root_task_ = ukvm::DomainId::Invalid();
  ukvm::ThreadId current_thread_ = ukvm::ThreadId::Invalid();

  uint64_t ipc_calls_ = 0;

  // E21/E23 fast-path state.
  IpcPath ipc_path_ = IpcPath::kSlow;
  // Set when a fast path direct-switched without touching run_queue_;
  // cleared by DrainLazyRunQueue at the next real schedule decision.
  bool lazy_queue_dirty_ = false;
  bool test_skip_fastpath_reply_record_ = false;
  bool test_skip_replywait_record_ = false;
  bool test_skip_notify_latch_ = false;
  FastpathStats fastpath_stats_;

  // E23: one pinned temp-map string window per vCPU. The pin remembers
  // which source page the window currently maps (space identity is the
  // PageTable's never-recycled instance id, so a dead space can never alias
  // a live one); a burst of strings from the same page pays the window PTE
  // write once. The E22 request-trace origin name for pager fault IPC.
  struct StringWindow {
    uint64_t space_instance = 0;
    hwsim::Vaddr vpn = 0;
    bool valid = false;
  };
  std::vector<StringWindow> string_windows_;
  uint32_t req_pf_name_ = 0;
};

}  // namespace ukern

#endif  // UKVM_SRC_UKERNEL_KERNEL_H_
