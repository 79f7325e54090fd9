#pragma once
// Retrograde Analysis (§4.5) — end-game database construction for a
// simplified Awari-style sowing game.
//
// Board: 12 pits, the side to move owns pits 0-5. A move picks a
// non-empty own pit and sows its stones counterclockwise one per pit; if
// the last stone lands in an opponent pit bringing it to 2 or 3 stones,
// those stones are captured (leaving a position with fewer stones, whose
// value comes from the smaller database). A player whose pits are all
// empty cannot move and loses. (Single-capture only and no origin-skip —
// a documented simplification of full Awari; the combinatorial structure
// and the irregular communication pattern are preserved.)
//
// The k-stone database is computed by parallel backward induction:
// positions are hash-partitioned over the processes; when a position's
// value becomes known, update messages flow to the owners of its
// predecessors — many small asynchronous messages to unpredictable
// destinations, the paper's RA pattern. Smaller databases (k' < k) are
// solved sequentially and memoized once per process, as the paper's
// program had them on disk.
//
// Original: updates are batched per *destination node* (the message
// combining the paper's baseline RA already performed).
// Optimized: the same program, with intercluster messages additionally
// combined per *cluster* at the gateways (§4.5's cluster-level message
// combining) — gateway combining at orca::coll::kDefaultCombineBytes
// unless the config already set a threshold (--combine-bytes or
// wan_transport.combine_bytes).

#include "apps/app.hpp"

namespace alb::apps {

struct RaParams {
  int stones = 8;
  /// Per-destination-node batch size of the baseline program.
  int node_batch = 4;
  /// Simulated cost of generating one position's moves.
  sim::SimTime ns_per_position = 20000;
  /// Simulated cost of processing one update message.
  sim::SimTime ns_per_update = 4000;

  static RaParams bench_default() { return {}; }
};

struct RaOutcome {
  long long wins = 0;
  long long losses = 0;
  long long draws = 0;
  std::uint64_t value_hash = 0;
};

RaOutcome ra_reference(const RaParams& params);
std::uint64_t ra_checksum(const RaOutcome& o);

AppResult run_ra(const AppConfig& cfg, const RaParams& params);

}  // namespace alb::apps
