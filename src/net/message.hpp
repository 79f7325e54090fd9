#pragma once
// Messages.
//
// `bytes` is what the network charges (application payload plus protocol
// framing as chosen by the sender); `payload` carries the actual C++
// object between simulated processes, type-erased. The simulation runs in
// one address space, so "shipping" a payload is a shared_ptr copy — the
// cost model is entirely in `bytes`.

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace alb::net {

/// Message classes, used for routing statistics (Tables 4 and 5 of the
/// paper report intercluster RPC and broadcast traffic separately).
enum class MsgKind : std::uint8_t {
  Rpc,       // remote object invocation request
  RpcReply,  // its reply
  Bcast,     // totally-ordered broadcast data
  Control,   // sequencer / token / termination protocol messages
  Data,      // raw point-to-point application data (send/receive style)
};

constexpr const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::Rpc: return "rpc";
    case MsgKind::RpcReply: return "rpc-reply";
    case MsgKind::Bcast: return "bcast";
    case MsgKind::Control: return "control";
    case MsgKind::Data: return "data";
  }
  return "?";
}

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::size_t bytes = 0;
  MsgKind kind = MsgKind::Data;
  /// Application-level demultiplexing tag (mailbox number).
  int tag = 0;
  /// Monotonic per-network id, assigned by Network::send.
  std::uint64_t id = 0;
  /// Simulated time the message entered the network.
  sim::SimTime sent_at = 0;
  /// Fault-injection service class: true for traffic whose sender
  /// recovers end-to-end (RPC request/reply, sequencer request/grant
  /// when the recovery protocol is armed) — the only messages loss,
  /// flaps and brown-outs may discard. Everything else is stream
  /// traffic: delayed at worst, never dropped. See src/net/fault.hpp.
  bool droppable = false;
  /// Logical messages carried: > 1 when the application packed several
  /// items into this one shipment (e.g. RA's per-destination-node
  /// batches). Feeds the WAN logical-traffic accounting so Table-4/5
  /// outputs can report payload counts alongside wire counts.
  std::uint32_t combined_members = 1;
  std::shared_ptr<const void> payload;
};

namespace detail {

[[noreturn]] inline void missing_payload(const Message& m) {
  std::fprintf(stderr,
               "albatross: payload_as on a message without a payload "
               "(kind=%s tag=%d id=%llu)\n",
               to_string(m.kind), m.tag, static_cast<unsigned long long>(m.id));
  std::abort();
}

}  // namespace detail

/// Wraps a value for shipment. One allocation: the shared_ptr<const T>
/// converts to shared_ptr<const void> sharing the same control block.
template <typename T>
std::shared_ptr<const void> make_payload(T value) {
  return std::make_shared<const T>(std::move(value));
}

/// Extracts a payload previously created with make_payload<T>.
template <typename T>
const T& payload_as(const Message& m) {
  if (!m.payload) detail::missing_payload(m);
  return *static_cast<const T*>(m.payload.get());
}

}  // namespace alb::net
