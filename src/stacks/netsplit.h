// The split network driver: netfront (guest) and netback (driver domain).
//
// This is the I/O architecture of §3.2: "Xen uses a separate virtual
// machine (called Dom0) to encapsulate legacy device drivers. Hence, any
// I/O operation implies at least one round-trip communication between the
// guest VM and Dom0." Transmit uses grant mapping (zero-copy); receive
// supports both of Xen 2.x's modes:
//   kPageFlip  — the guest advertises transfer slots and received packets
//                are flipped into it (fixed cost per packet, the mechanism
//                behind Cherkasova & Gardner's Dom0-CPU ∝ #flips finding);
//   kGrantCopy — the backend grant-copies payloads into guest buffers
//                (cost proportional to bytes).

#ifndef UKVM_SRC_STACKS_NETSPLIT_H_
#define UKVM_SRC_STACKS_NETSPLIT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/core/error.h"
#include "src/drivers/nic_driver.h"
#include "src/hw/machine.h"
#include "src/os/arch_if.h"
#include "src/os/net_protocol.h"
#include "src/stacks/port_mux.h"
#include "src/stacks/split_grants.h"
#include "src/stacks/watchdog.h"
#include "src/stacks/xenbus.h"
#include "src/stacks/xenring.h"
#include "src/vmm/hypervisor.h"

namespace ustack {

enum class RxMode { kPageFlip, kGrantCopy };

const char* RxModeName(RxMode mode);

struct NetTxReq {
  uint32_t gref = 0;
  uint32_t len = 0;
};
struct NetTxResp {
  uint32_t gref = 0;
  ukvm::Err status = ukvm::Err::kNone;
};
struct NetRxReq {
  uint32_t ref = 0;   // transfer slot (flip) or writable access grant (copy)
  uvmm::Pfn pfn = 0;  // the guest page behind it
};
struct NetRxResp {
  uint32_t ref = 0;
  uvmm::Pfn pfn = 0;
  uint32_t len = 0;
  ukvm::Err status = ukvm::Err::kNone;
};

// One frontend/backend connection.
struct NetChannel {
  ukvm::DomainId guest;
  std::unique_ptr<XenRing<NetTxReq, NetTxResp>> tx_ring;
  std::unique_ptr<XenRing<NetRxReq, NetRxResp>> rx_ring;
  uint32_t back_tx_port = 0;  // backend-side ports (guest binds against them)
  uint32_t back_rx_port = 0;
  uint32_t front_tx_port = 0;  // guest-side ports (filled in by the frontend)
  uint32_t front_rx_port = 0;
};

class NetBack {
 public:
  // `mux` is the backend domain's upcall demultiplexer; NetBack registers
  // its ports there. `routes` is the stack-owned wire routing table (it
  // outlives the backend): a packet routed to a guest without a live
  // channel here is dropped, an unrouted one goes to the first channel.
  // The stack must point the NIC driver's rx callback at OnPacketReceived.
  NetBack(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId backend,
          udrv::NicDriver& driver, RxMode mode, PortMux& mux, const minios::NetRoutes& routes);

  // Control plane ("xenstore"): sets up rings and backend event ports for
  // `guest`. The frontend completes the handshake via NetFront::Connect.
  NetChannel* Connect(ukvm::DomainId guest);

  // The NIC driver's rx callback (runs in the backend domain). With an rx
  // batch > 1 the packet is staged instead of delivered; FlushRx pushes a
  // whole burst through one multicall per destination channel.
  void OnPacketReceived(hwsim::Frame frame, uint32_t len);

  // Batch boundary: deliver every staged packet now. Wired as the NIC
  // driver's batch-drain hook so a poll round's worth of packets becomes
  // one flush. A batch > 1 also requires the driver's deferred-repost mode
  // (the backend returns each frame via RepostRx after the flip/copy).
  void FlushRx();
  void SetRxBatch(size_t batch);
  size_t rx_batch() const { return rx_batch_; }

  // Persistent-grant mode (a real Xen protocol extension): granted tx pages
  // stay mapped in the backend across packets. Frontends learn the setting
  // at Connect.
  void SetPersistentGrants(bool on) { tx_maps_.SetPersistent(on); }
  bool persistent_grants() const { return tx_maps_.persistent(); }

  // The backend dies inside its surviving domain (a netback crash in
  // Dom0): it unmaps every tx mapping (its successor maps at the same VAs),
  // closes its channels' ports and serves nothing more.
  void Kill();
  bool alive() const { return alive_; }

  // Circuit breaker: persistent transmit failures make the backend answer
  // tx requests with kRetryExhausted instead of wedging against the device.
  void SetDegradePolicy(const DegradePolicy& policy) { health_.SetPolicy(policy); }
  const ServiceHealth& health() const { return health_; }

  RxMode mode() const { return mode_; }
  ukvm::DomainId backend() const { return backend_; }
  uint64_t tx_packets() const { return tx_packets_; }
  uint64_t rx_delivered() const { return rx_delivered_; }
  uint64_t rx_dropped() const { return rx_dropped_; }
  uint64_t rx_flushes() const { return rx_flushes_; }
  size_t rx_staged() const { return rx_staged_.size(); }

 private:
  struct StagedRx {
    hwsim::Frame frame = 0;
    uint32_t len = 0;
    uint64_t arrived = 0;  // Now() at staging, for the rx-backlog histogram
    ukvm::ReqTraceRef trace;  // E22: the rx request minted at arrival
  };

  void DeliverOne(hwsim::Frame frame, uint32_t len);
  void OnTxKick(NetChannel& chan);
  NetChannel* ChannelFor(std::span<const uint8_t> packet);

  hwsim::Machine& machine_;
  uvmm::Hypervisor& hv_;
  ukvm::DomainId backend_;
  udrv::NicDriver& driver_;
  RxMode mode_;
  PortMux& mux_;
  const minios::NetRoutes& routes_;
  std::vector<std::unique_ptr<NetChannel>> channels_;
  ServiceHealth health_;
  size_t rx_batch_ = 1;
  bool alive_ = true;
  std::vector<StagedRx> rx_staged_;
  BackMappings tx_maps_;  // granted tx pages in the backend's map window
  uint64_t tx_packets_ = 0;
  uint64_t rx_delivered_ = 0;
  uint64_t rx_dropped_ = 0;
  uint64_t rx_flushes_ = 0;
  uint32_t hist_rx_backlog_ = 0;  // "net.rx.backlog": staging -> delivery cycles
  // E22 interned request-trace names.
  uint32_t req_rx_name_ = 0;     // "net.rx" origin
  uint32_t req_flush_name_ = 0;  // "net.rx.flush" shared multicall span
  uint32_t req_dev_name_ = 0;    // "nic.send" device leaf
};

class NetFront : public minios::NetDevice {
 public:
  // `pool` are guest pfns dedicated to network I/O (tx staging + rx slots);
  // `mux` is the guest's upcall demultiplexer.
  NetFront(hwsim::Machine& machine, uvmm::Hypervisor& hv, ukvm::DomainId guest,
           std::vector<uvmm::Pfn> pool, PortMux& mux);

  // Completes the split-driver handshake, adopts the backend's rx mode, rx
  // batch and grant mode, and posts the rx window (half the pool; the rest
  // stages tx). A restarted backend gets the same window: a slot carries
  // no data, so nothing needs replaying.
  ukvm::Err Connect(NetBack& back);

  // --- minios::NetDevice ------------------------------------------------------

  ukvm::Err Send(std::span<const uint8_t> packet) override;
  void SetRecvHandler(RecvHandler handler) override { handler_ = std::move(handler); }
  uint32_t mtu() const override { return 1514; }

  // --- Crash recovery (E19) -------------------------------------------------
  //
  // Network recovery is drop-and-retransmit: packets lost with the backend
  // are *counted*, never replayed — upper layers own retransmission, as on
  // a real NIC.

  // The one teardown, whichever way the backend died. Responses already in
  // the rx ring are delivered (the exactly-once read-back). While the
  // backend's domain lives, every grant toward it (cached and in-flight tx
  // grants, posted rx slots) is ended and this end's ports are closed; a
  // dead domain's were reclaimed by the hypervisor. Every pool page comes
  // home.
  void OnBackendDead(ukvm::DomainId dead);

  XenbusConn& xenbus() { return xenbus_; }
  uint64_t tx_dropped_on_crash() const { return tx_dropped_on_crash_; }

  // Rx-side crash accounting (the receive twin of tx_dropped_on_crash):
  // packets whose response was in the ring when the backend died are
  // *recovered* (their payload already landed in guest memory — the
  // exactly-once read-back), not dropped; only undeliverable responses
  // still count as dropped.
  uint64_t rx_recovered_on_crash() const { return rx_recovered_on_crash_; }
  uint64_t rx_dropped_on_crash() const { return rx_dropped_on_crash_; }
  // Rx slots currently advertised, and the window Connect posts.
  size_t rx_slots_posted() const { return rx_posted_.size(); }
  size_t rx_window() const { return pool_.size() / 2; }

  // The guest-side event-channel port rx upcalls arrive on (tests use this
  // to pin crash interleavings by intercepting the upcall).
  uint32_t front_rx_port() const;

  uint64_t tx_sent() const { return tx_sent_; }
  uint64_t rx_received() const { return rx_received_; }

 private:
  void PostRxSlot(uvmm::Pfn pfn, bool kick);
  void OnTxResponse();
  void OnRxResponse();
  // Delivers one rx response's payload to the guest network stack; returns
  // false when the payload cannot be reached (error status, bad pfn).
  bool DeliverRxPayload(uvmm::Domain* dom, uint32_t pfn, uint32_t len, ukvm::Err status);
  void ForgetPostedRxSlot(uvmm::Pfn pfn);

  hwsim::Machine& machine_;
  uvmm::Hypervisor& hv_;
  ukvm::DomainId guest_;
  RxMode mode_ = RxMode::kPageFlip;
  PortMux& mux_;
  NetChannel* chan_ = nullptr;
  ukvm::DomainId backend_ = ukvm::DomainId::Invalid();
  struct TxGrant {
    uvmm::Pfn pfn = 0;
    uint64_t t0 = 0;  // Now() at Send, for the tx end-to-end histogram
    ukvm::ReqTraceRef trace;  // E22: the tx request minted at Send
  };

  std::deque<uvmm::Pfn> free_pfns_;
  std::vector<uvmm::Pfn> pool_;  // the full I/O pool, for reclamation on crash
  FrontGrants grants_;           // tx staging pages' grants
  std::map<uint32_t, TxGrant> tx_in_flight_;  // gref -> staging pfn + t0
  RecvHandler handler_;
  XenbusConn xenbus_;
  uint64_t tx_dropped_on_crash_ = 0;  // in-flight tx packets lost with a backend
  std::deque<NetRxReq> rx_posted_;    // slots currently advertised
  uint64_t rx_recovered_on_crash_ = 0;
  uint64_t rx_dropped_on_crash_ = 0;
  // An io batch > 1 makes OnRxResponse drain the whole ring per upcall and
  // re-advertise all consumed slots under one multicall.
  size_t io_batch_ = 1;
  // Persistent-grant mode of the grant-copy rx slots (grants_ keeps the tx
  // pages'): a consumed slot's writable grant is simply reused.
  bool persistent_ = false;
  uint64_t tx_sent_ = 0;
  uint64_t rx_received_ = 0;
  uint32_t hist_tx_e2e_ = 0;  // "net.tx.e2e": Send -> tx response cycles
  uint32_t req_tx_name_ = 0;  // E22 "net.tx" origin name
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_NETSPLIT_H_
