// Xenbus-style connection state machine for split drivers (E19).
//
// Xen's real xenbus is a store-plus-watch protocol whose visible effect is a
// per-device connection state machine: frontend and backend advertise states
// (Initialising, Connected, Closing, ...) and each side reacts to the
// other's transitions. What E19 needs from it is exactly that skeleton: a
// frontend that can discover its backend died, tear down the stale shared
// state (rings, grants, event channels), wait for reclamation, rebuild the
// connection against the restarted backend, and replay unacknowledged work.
//
// XenbusConn is that skeleton, shared by netsplit and blksplit and mirrored
// by the ukernel stack's server-session reconnect. It owns no rings or
// grants itself — the drivers do — it owns the *phases* and the clock: each
// transition timestamps its segment into the recovery.* histograms so the
// E19 bench can decompose recovery latency into detection, reclamation,
// reconnect, and replay.
//
//   kInit ── OnConnected ──► kConnected ── OnDetected ──► kClosing
//      ▲                          ▲                            │
//      │                          │                       OnReclaimed
//      │                    OnReconnected                      │
//      │                          │                            ▼
//      └──────────────────────────┴──────────────────── kReconnecting
//
// The watchdog's ordinary probe/restart path drives it: MarkFailure() is
// called when the backend is killed (or at the first failed probe),
// OnDetected() when the supervisor decides the service is down, and the
// stack's RestartFn calls OnReclaimed/OnReconnected/OnReplayed as it works
// through teardown, rebind, and journal replay.

#ifndef UKVM_SRC_STACKS_XENBUS_H_
#define UKVM_SRC_STACKS_XENBUS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/ids.h"
#include "src/hw/machine.h"

namespace ustack {

enum class XenbusState : uint8_t {
  kInit,          // created, never connected
  kConnected,     // rings mapped, event channels bound, traffic flowing
  kClosing,       // backend death detected; stale state being torn down
  kReconnecting,  // corpse reclaimed; rebuilding against the new backend
};

const char* XenbusStateName(XenbusState state);

// Timestamps of the most recent completed recovery, captured at
// OnReconnected before the failure mark is re-armed. Drivers use it to
// attach recovery-phase leaves to the request DAGs of journaled work (E22):
// detect = [failure_at, detected_at], reclaim = [detected_at, reclaimed_at],
// reconnect = [reclaimed_at, reconnected_at].
struct RecoveryPhases {
  uint64_t failure_at = 0;
  uint64_t detected_at = 0;
  uint64_t reclaimed_at = 0;
  uint64_t reconnected_at = 0;
  bool valid() const { return reconnected_at != 0; }
};

class XenbusConn {
 public:
  // `service` names the connection in traces ("blk", "net", "uk-blk", ...);
  // `domain` is the frontend's domain for span attribution.
  XenbusConn(hwsim::Machine& machine, std::string_view service, ukvm::DomainId domain);

  XenbusConn(const XenbusConn&) = delete;
  XenbusConn& operator=(const XenbusConn&) = delete;

  // --- Transitions -----------------------------------------------------------

  // kInit -> kConnected: the first successful connect. Idempotent on an
  // already-connected conn (frontends reconnect through OnReconnected).
  void OnConnected();

  // Remembers when the backend actually failed (the kill edge, or the
  // watchdog's first failed probe). Earliest mark in a streak wins so the
  // detection segment measures the full outage, not the last retry.
  void MarkFailure(uint64_t when);

  // kConnected -> kClosing: the supervisor decided the backend is dead.
  // Records recovery.detect = Now() - failure mark and opens the recovery
  // span.
  void OnDetected();

  // kClosing -> kReconnecting: stale grants/event channels/device state for
  // the dead backend are gone. Records recovery.reclaim.
  void OnReclaimed();

  // kReconnecting -> kConnected: rings re-allocated, grants re-issued,
  // event channels rebound against the restarted backend. Records
  // recovery.reconnect and recovery.e2e, closes the recovery span.
  void OnReconnected();

  // Journal replay finished (`replayed` requests re-issued). Records
  // recovery.replay as the segment since OnReconnected.
  void OnReplayed(uint64_t replayed);

  // --- Introspection ---------------------------------------------------------

  XenbusState state() const { return state_; }
  bool connected() const { return state_ == XenbusState::kConnected; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t replayed_total() const { return replayed_total_; }
  const std::string& service() const { return service_; }
  const RecoveryPhases& last_phases() const { return last_phases_; }

 private:
  void Transition(XenbusState next);

  hwsim::Machine& machine_;
  std::string service_;
  ukvm::DomainId domain_;
  XenbusState state_ = XenbusState::kInit;

  uint64_t failure_at_ = 0;    // earliest unhandled failure mark; 0 = none
  uint64_t detected_at_ = 0;
  uint64_t reclaimed_at_ = 0;
  uint64_t reconnected_at_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t replayed_total_ = 0;
  RecoveryPhases last_phases_;

  uint32_t trace_state_name_ = 0;     // instant per transition
  uint32_t trace_recovery_name_ = 0;  // span over detect..reconnect
  uint64_t recovery_span_ = 0;        // open span token; 0 = none
  uint32_t hist_detect_ = 0;
  uint32_t hist_reclaim_ = 0;
  uint32_t hist_reconnect_ = 0;
  uint32_t hist_replay_ = 0;
  uint32_t hist_e2e_ = 0;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_XENBUS_H_
