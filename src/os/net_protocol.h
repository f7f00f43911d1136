// Inbound wire routing for the network service, shared by both stacks. The
// VMM's netback and the microkernel's net server classify every received
// packet through the same stack-owned table.
//
// A route sends the packets addressed to one wire port to one client: a
// guest domain for the netback, a guest's OS task for the net server. The
// table outlives any one server instance, so a restarted server routes
// exactly as its predecessor did, with nothing to replay. A packet routed
// to a client with no live endpoint on the server is dropped. Only an
// unrouted packet (malformed, or no route for its port) falls back to the
// server's first attached client.

#ifndef UKVM_SRC_OS_NET_PROTOCOL_H_
#define UKVM_SRC_OS_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "src/core/ids.h"
#include "src/os/netstack.h"

namespace minios {

class NetRoutes {
 public:
  // Routes the packets addressed to `wire_port` to `client`; the latest
  // registration for a port wins.
  void Route(uint16_t wire_port, ukvm::DomainId client) { routes_[wire_port] = client; }

  // The client `packet` is routed to, or nullopt for an unrouted packet.
  std::optional<ukvm::DomainId> Classify(std::span<const uint8_t> packet) const {
    ParsedPacket parsed;
    if (!ParsePacket(packet, parsed)) {
      return std::nullopt;
    }
    const auto it = routes_.find(parsed.dst_port);
    if (it == routes_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  std::unordered_map<uint16_t, ukvm::DomainId> routes_;
};

}  // namespace minios

#endif  // UKVM_SRC_OS_NET_PROTOCOL_H_
