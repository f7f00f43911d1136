// The split block driver: blkfront (guest) and blkback (storage domain).
//
// The backend serves each connected guest a private virtual-disk slice —
// the service model of Parallax [WRF+05], the paper's §3.1 example of a
// VMM-world external service that is structurally identical to a
// microkernel user-level server. Data moves via grant mapping (the backend
// maps the guest's I/O page and DMAs directly into/out of it).

#ifndef UKVM_SRC_STACKS_BLKSPLIT_H_
#define UKVM_SRC_STACKS_BLKSPLIT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/drivers/disk_driver.h"
#include "src/hw/machine.h"
#include "src/os/arch_if.h"
#include "src/os/blk_protocol.h"
#include "src/stacks/port_mux.h"
#include "src/stacks/split_grants.h"
#include "src/stacks/watchdog.h"
#include "src/stacks/xenbus.h"
#include "src/stacks/xenring.h"
#include "src/vmm/hypervisor.h"

namespace ustack {

struct BlkReq {
  uint64_t id = 0;
  bool is_write = false;
  uint64_t lba = 0;        // slice-relative
  uint32_t count = 0;      // blocks (must fit in one page)
  uint32_t gref = 0;       // guest I/O page
  uint64_t low_water = 0;  // writes: lowest id still journaled (BlkJournal)
};
struct BlkResp {
  uint64_t id = 0;
  ukvm::Err status = ukvm::Err::kNone;
};

struct BlkChannel {
  ukvm::DomainId guest;
  std::unique_ptr<XenRing<BlkReq, BlkResp>> ring;
  uint32_t back_port = 0;
  uint32_t front_port = 0;
  uint64_t slice_base = 0;    // first block of this guest's slice
  uint64_t slice_blocks = 0;  // slice capacity
};

class BlkBack {
 public:
  // `store` is the stack-owned slice table and exactly-once log (it
  // outlives the backend): each guest keeps the slice it got on first
  // connect, completed writes are recorded, and duplicate ids (journal
  // replays of writes that did land before the crash) are answered success
  // without re-touching the disk.
  BlkBack(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId backend,
          udrv::DiskDriver& driver, PortMux& mux, minios::BlkStore& store);

  BlkChannel* Connect(ukvm::DomainId guest);

  // Persistent-grant mode: each guest I/O page stays mapped across
  // requests (no unmap on completion). Frontends learn the setting at
  // Connect.
  void SetPersistentGrants(bool on) { mappings_.SetPersistent(on); }
  bool persistent_grants() const { return mappings_.persistent(); }

  // Circuit breaker: persistent disk failures make the backend answer ring
  // requests with kRetryExhausted instead of burning retries per request.
  void SetDegradePolicy(const DegradePolicy& policy) { health_.SetPolicy(policy); }
  const ServiceHealth& health() const { return health_; }

  // Test hook: a wedged backend ignores ring kicks entirely — alive but
  // unresponsive, the failure mode neither the domain-dead upcall nor the
  // supervisor's kill-edge MarkFailure can see. The frontend liveness probe
  // exists to detect exactly this.
  void SetWedged(bool wedged) { wedged_ = wedged; }

  // The backend dies inside its surviving domain (a storage driver crash
  // in Dom0): it unmaps every mapping it holds, persistent or in flight
  // (its successor maps at the same VAs), closes its channels' ports and
  // serves nothing more. A write already on the disk still lands, and its
  // completion only records it in the store.
  void Kill();
  bool alive() const { return alive_; }

  ukvm::DomainId backend() const { return backend_; }
  uint32_t block_size() const;
  uint64_t requests_served() const { return served_; }
  const BackMappings& mappings() const { return mappings_; }

 private:
  void OnKick(BlkChannel& chan);

  hwsim::Machine& machine_;
  uvmm::Hypervisor& hv_;
  ukvm::DomainId backend_;
  udrv::DiskDriver& driver_;
  PortMux& mux_;
  std::vector<std::unique_ptr<BlkChannel>> channels_;
  ServiceHealth health_;
  minios::BlkStore& store_;
  bool wedged_ = false;
  bool alive_ = true;
  BackMappings mappings_;  // guest I/O pages in the backend's map window
  uint64_t served_ = 0;
  uint32_t req_dev_name_ = 0;  // E22 "disk.io" device leaf
};

class BlkFront : public minios::BlockDevice {
 public:
  // `pool` are guest pfns used as I/O pages.
  BlkFront(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId guest,
           std::vector<uvmm::Pfn> pool, PortMux& mux);
  ~BlkFront() override;  // cancels any armed liveness-probe event

  // Completes the handshake and adopts the backend's grant mode. Against a
  // restarted backend it then replays every journaled write under its
  // original id; the store suppresses the ones that landed before the crash.
  ukvm::Err Connect(BlkBack& back);

  // --- minios::BlockDevice ------------------------------------------------------

  uint32_t block_size() const override { return block_size_; }
  uint64_t capacity_blocks() const override { return capacity_; }
  ukvm::Err Read(uint64_t lba, uint32_t count, std::span<uint8_t> out) override;
  ukvm::Err Write(uint64_t lba, uint32_t count, std::span<const uint8_t> in) override;

  const FrontGrants& grants() const { return grants_; }

  // --- Crash recovery (E19) -------------------------------------------------
  //
  // Writes are journaled until answered and replayed (same ids) when
  // Connect rebuilds the connection.

  // The one teardown, whichever way the backend died. While its domain
  // lives, ends the cached grants and closes this end's port (a dead
  // domain's were reclaimed by the hypervisor). Dropping the channel wakes
  // a request blocked on the ring with kDead; it ends its own grant, and a
  // journaled write stays for replay.
  void OnBackendDead(ukvm::DomainId dead);

  // --- Frontend-driven liveness probing (E19 follow-up) ---------------------
  //
  // A wedged-but-undead backend answers nothing, so neither the domain-dead
  // upcall nor the supervisor's kill-edge MarkFailure fires. The probe is a
  // zero-block read the backend rejects (kOutOfRange) straight from its kick
  // handler — no grant work, no disk I/O; *any* answer proves liveness. No
  // answer within the deadline marks the failure at probe-issue time and
  // drives the xenbus conn to kClosing, feeding the same recovery.detect
  // histogram as supervisor-side detection.

  // One blocking probe. kNone: backend answered. kTimedOut: no answer within
  // `timeout_cycles` (detection recorded). kDead: backend died mid-probe.
  ukvm::Err ProbeBackend(uint64_t timeout_cycles);

  // Issues a non-blocking probe every `interval_cycles`, each judged against
  // a `timeout_cycles` deadline on a later tick. Survives reconnects; probes
  // are only issued while the conn is kConnected.
  void StartLivenessProbe(uint64_t interval_cycles, uint64_t timeout_cycles);
  void StopLivenessProbe();
  uint64_t probe_detections() const { return probe_detections_; }

  XenbusConn& xenbus() { return xenbus_; }
  const minios::BlkJournal& journal() const { return journal_; }

 private:
  ukvm::Err DoRequest(bool is_write, uint64_t lba, uint32_t count, std::span<uint8_t> out,
                      std::span<const uint8_t> in);
  // One page-sized request through the ring: stage the payload, grant the
  // page, push, kick, and wait for the answer. A first submission mints
  // its request (and journals a write under a fresh id); a replay
  // (`replay_id` != 0) re-issues a journaled write under its original id
  // and trace. Any answer resolves a journaled write.
  ukvm::Err SubmitChunk(uint64_t replay_id, bool is_write, uint64_t lba, uint32_t count,
                        std::span<uint8_t> out, std::span<const uint8_t> in);
  void OnResponse();
  ukvm::Err SendProbe(uint64_t id);
  void ProbeTick();

  hwsim::Machine& machine_;
  uvmm::Hypervisor& hv_;
  ukvm::DomainId guest_;
  ukvm::DomainId backend_ = ukvm::DomainId::Invalid();
  PortMux& mux_;
  BlkChannel* chan_ = nullptr;
  std::deque<uvmm::Pfn> free_pfns_;
  FrontGrants grants_;
  uint32_t block_size_ = 0;
  uint64_t capacity_ = 0;
  uint32_t hist_blk_e2e_ = 0;  // "blk.e2e": request submit -> completion cycles
  // E22 interned request-trace names.
  uint32_t req_write_name_ = 0;          // "blk.write" origin
  uint32_t req_read_name_ = 0;           // "blk.read" origin
  uint32_t req_rec_detect_name_ = 0;     // "recovery.detect" leaf
  uint32_t req_rec_reconnect_name_ = 0;  // "recovery.reconnect" leaf
  uint32_t req_rec_replay_name_ = 0;     // "recovery.replay" leaf
  std::unordered_map<uint64_t, ukvm::Err> completed_;  // id -> status
  XenbusConn xenbus_;
  minios::BlkJournal journal_;  // ids stay monotonic across reconnects

  // Periodic liveness-probe state (StartLivenessProbe).
  uint64_t probe_interval_ = 0;   // 0 = probing stopped
  uint64_t probe_timeout_ = 0;
  bool probe_inflight_ = false;
  uint64_t probe_id_ = 0;
  uint64_t probe_sent_at_ = 0;
  uint64_t probe_deadline_ = 0;
  hwsim::Machine::EventId probe_event_ = 0;
  bool probe_event_armed_ = false;
  uint64_t probe_detections_ = 0;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_BLKSPLIT_H_
