#pragma once
// Global sequence-number services for totally-ordered broadcast.
//
// The Orca system orders all replicated-object writes through a single
// global sequence. The paper discusses three policies:
//
//  * Centralized — one sequencer machine; cheap on a single cluster, a
//    WAN roundtrip per broadcast for every remote cluster. Built as a
//    migrating sequencer whose threshold is never reached.
//  * Rotating — "a distributed sequencer (one per cluster),
//    allowing each cluster to broadcast in turn" (§2): a token carrying
//    the next sequence number moves between per-cluster sequencers on
//    demand. Better than centralized on a WAN, but a sender whose
//    cluster does not hold the token still stalls for WAN hops.
//  * Migrating — the ASP optimization (§4.3): a centralized
//    sequencer that migrates to the cluster currently producing
//    broadcasts, making the common get-sequence local and allowing the
//    sender to pipeline computation with WAN delivery.
//
// Protocol messages are charged to the network as Control traffic. As in
// any simulator, protocol *state* lives in one address space; every
// state transition that would require a message in the real system sends
// one here.
//
// Partitioned execution: sequencer state is either confined to one
// cluster's engine context (per-cluster request queues, duplicate
// caches, location hints) or "handoff-owned" — passed between clusters
// by protocol message (the rotating token's counter, the migrating
// sequencer's counter and grant cache). A cross-cluster message staged
// at epoch E is processed at epoch >= E+1, and the epoch barrier gives
// the happens-before edge, so handoff-owned members stay plain C++
// fields. Consequence: every location decision travels by message (the
// migrating sequencer routes requests through per-cluster hints and
// per-node forwarding pointers instead of reading a global location).

#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>

#include "net/network.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

namespace alb::orca {

enum class SequencerKind { Centralized, Rotating, Migrating };

/// Migrate threshold of a Centralized-kind sequencer: high enough that
/// demand never reaches it, so the sequencer stays at `seq_node` unless
/// an adapt_arm lowers the threshold or a hint_migrate moves it.
inline constexpr int kCentralizedThreshold = 1 << 28;

class Sequencer {
 public:
  virtual ~Sequencer() = default;

  /// Obtains the next global sequence number on behalf of `node`.
  virtual sim::Task<std::uint64_t> get_sequence(net::NodeId node) = 0;

  /// Application hint: broadcasts will come from `node` for a while
  /// (no-op for the rotating sequencer; the others route the hint as a
  /// control message to the active sequencer location, which moves).
  virtual void hint_migrate(net::NodeId node) { (void)node; }

  /// Adaptive-policy hook: lower the sequencer's migrate threshold to
  /// `threshold`, routed from `from` to the active location as a
  /// control message (kTagSeqArm). No-op for the rotating sequencer —
  /// the adaptive runtime pairs this with the centralized one, which
  /// then migrates on demand (see orca/adaptive.hpp).
  virtual void adapt_arm(net::NodeId from, int threshold) {
    (void)from;
    (void)threshold;
  }

  /// Hard-failure fan-out for one cluster: errors every get-sequence
  /// call from `cluster`'s nodes parked inside the sequencer (not in
  /// flight on the network) so its caller unwinds. Callers suspended on
  /// in-flight requests are woken by their own retry timers. Called per
  /// cluster, in that cluster's engine context, as the failure
  /// propagates (see src/net/fault.hpp). No-op for sequencers that park
  /// no requests.
  virtual void fail_pending(net::ClusterId cluster, std::exception_ptr e) {
    (void)cluster;
    (void)e;
  }

  /// Sequence numbers issued so far.
  virtual std::uint64_t issued() const = 0;

  /// Rotating-sequencer control traffic (all zero for the others):
  /// token hops, kick hops, and kicks that died back at their origin.
  struct ProtocolCounts {
    std::uint64_t token_passes = 0;
    std::uint64_t kicks = 0;
    std::uint64_t kicks_retired = 0;
  };
  /// Post-run accessor, summed over the per-cluster counters.
  virtual ProtocolCounts protocol_counts() const { return {}; }
};

/// Factory. `seq_node` is the initial sequencer location (centralized /
/// migrating); `migrate_threshold` is the number of consecutive
/// same-cluster remote requests that trigger a migration (migrating
/// only; centralized uses kCentralizedThreshold).
std::unique_ptr<Sequencer> make_sequencer(SequencerKind kind, net::Network& net,
                                          net::NodeId seq_node, int migrate_threshold = 2);

}  // namespace alb::orca
