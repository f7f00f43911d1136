// Demultiplexes a domain's single event-channel upcall onto per-port
// handlers (what a guest kernel's evtchn dispatch loop does).

#ifndef UKVM_SRC_STACKS_PORT_MUX_H_
#define UKVM_SRC_STACKS_PORT_MUX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

namespace ustack {

class PortMux {
 public:
  void Route(uint32_t port, std::function<void()> handler) {
    routes_[port] = std::move(handler);
  }
  void Unroute(uint32_t port) { routes_.erase(port); }

  void Dispatch(uint32_t port) {
    auto it = routes_.find(port);
    if (it != routes_.end() && it->second) {
      it->second();
    }
  }

  // Adapter usable as a Domain's evtchn_upcall.
  std::function<void(uint32_t)> AsUpcall() {
    return [this](uint32_t port) { Dispatch(port); };
  }

 private:
  std::unordered_map<uint32_t, std::function<void()>> routes_;
};

}  // namespace ustack

#endif  // UKVM_SRC_STACKS_PORT_MUX_H_
