// Event channels: Xen's asynchronous notification primitive.
//
// Hand et al. called this a "simple asynchronous unidirectional event
// mechanism"; Heiser et al.'s response (§3.2) is that "it is nothing else
// than a form of asynchronous IPC" — which is why every Send here is
// recorded in the crossing ledger as an async-notify crossing, directly
// comparable with the microkernel's Notify.

#ifndef UKVM_SRC_VMM_EVENT_CHANNEL_H_
#define UKVM_SRC_VMM_EVENT_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/error.h"
#include "src/core/ids.h"

namespace hwsim {
class Machine;
}

namespace uvmm {

class EventChannelTable {
 public:
  // `deliver` is the hypervisor's upcall path: schedule/perform a virtual
  // interrupt into `target` for `port`.
  using DeliverFn = std::function<void(ukvm::DomainId target, uint32_t port)>;

  // Every successful Send reports to `machine`'s observers: the release
  // half of the send->upcall happens-before edge (E20; the acquire half
  // fires in the hypervisor's upcall delivery), an "evtchn.send" instant
  // (E17) and the request stash the upcall adopts (E22).
  EventChannelTable(DeliverFn deliver, hwsim::Machine& machine);

  // Creates a local port that `remote` may later bind to.
  ukvm::Result<uint32_t> AllocUnbound(ukvm::DomainId owner, ukvm::DomainId remote);

  // Connects a new local port of `caller` to `remote_dom`'s unbound
  // `remote_port`, completing the channel.
  ukvm::Result<uint32_t> BindInterdomain(ukvm::DomainId caller, ukvm::DomainId remote_dom,
                                         uint32_t remote_port);

  // Signals the peer end of `port` (asynchronous, unidirectional). The
  // pending bit doubles as a coalescing latch: a Send whose peer bit is
  // already set (masked, or signalled again before the earlier upcall was
  // consumed) just leaves it set — N notifications collapse into one upcall,
  // exactly Xen's evtchn_pending bitmap semantics.
  ukvm::Err Send(ukvm::DomainId caller, uint32_t port);

  ukvm::Err Close(ukvm::DomainId caller, uint32_t port);

  // Masking (a masked port accumulates pending state but does not upcall).
  // Unmasking a port whose pending bit is set delivers the single deferred
  // upcall — the flush half of the coalescing protocol.
  ukvm::Err SetMask(ukvm::DomainId owner, uint32_t port, bool masked);

  // Consumes the pending bit of a port (guest-side acknowledgement);
  // returns whether it was pending.
  ukvm::Result<bool> ConsumePending(ukvm::DomainId owner, uint32_t port);

  // Drops all channels touching `domain` (domain destruction), both ends:
  // a surviving peer's port is freed with it.
  void CloseAllOf(ukvm::DomainId domain);

  // The distinct domains `domain` has a connected channel to, in port order
  // (deterministic). Collected by DestroyDomain *before* CloseAllOf so the
  // kDomainDead upcall knows who to notify.
  std::vector<ukvm::DomainId> PeersOf(ukvm::DomainId domain) const;

  // A read-only view of one allocated port, for the invariant auditor.
  struct ChannelView {
    ukvm::DomainId owner;
    uint32_t port = 0;
    bool connected = false;
    ukvm::DomainId remote_dom;
    uint32_t remote_port = 0;
    bool pending = false;
    bool masked = false;
  };

  // Visits every allocated port of every domain.
  void ForEachChannel(const std::function<void(const ChannelView&)>& fn) const;

  uint64_t sends() const { return sends_; }
  // Sends absorbed by an already-pending bit (no upcall scheduled).
  uint64_t coalesced_sends() const { return coalesced_sends_; }
  size_t ports_of(ukvm::DomainId domain) const;

 private:
  struct Port {
    bool allocated = false;
    bool connected = false;
    ukvm::DomainId remote_dom = ukvm::DomainId::Invalid();
    uint32_t remote_port = 0;
    bool pending = false;
    bool masked = false;
  };

  Port* FindPort(ukvm::DomainId domain, uint32_t port);

  DeliverFn deliver_;
  hwsim::Machine& machine_;
  uint32_t trace_send_name_ = 0;
  std::unordered_map<ukvm::DomainId, std::vector<Port>> ports_;
  uint64_t sends_ = 0;
  uint64_t coalesced_sends_ = 0;
};

}  // namespace uvmm

#endif  // UKVM_SRC_VMM_EVENT_CHANNEL_H_
