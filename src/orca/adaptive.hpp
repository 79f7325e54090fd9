#pragma once
// Adaptive policy engine: the paper's §4 optimizations, applied mid-run.
//
// The causal profiler (src/trace/causal/) *diagnoses* the wide-area
// bottleneck patterns — sequencer-wait domination (ASP), central-queue
// contention (TSP), fine-grained intercluster traffic (RA) — and PR 7
// shipped the machinery that fixes each one. This engine closes the
// loop: a per-cluster access-pattern monitor feeds a per-cluster policy
// controller that applies the matching optimization while the run is in
// progress, as a generic shared-object policy rather than a hand
// annotation:
//
//   * sequencer migration — under --adapt the runtime orders through
//     the centralized sequencer at node 0 (a migrating sequencer whose
//     threshold is never reached; on a multicluster that is not the
//     non-adaptive default, which rotates); when a cluster's mean
//     get-sequence stall per broadcast reaches WAN scale
//     (`seq_wait_lat_factor` x the minimum intercluster latency), the
//     controller arms demand-driven migration by routing a control
//     message to the active location (kTagSeqArm) that lowers the
//     threshold to `arm_threshold`.
//   * per-cluster queue split — a CentralJobQueue registers a split
//     callback; when the master observes a remote-dominated get stream,
//     the controller has it repartition the remaining jobs round-robin
//     over per-cluster queues (work-stealing fallback once a local
//     queue drains).
//   * cluster-level combining — Runtime::send_data counts each
//     cluster's local and remote data sends; when a cluster's stream is
//     remote-dominated, the controller arms gateway message combining
//     for traffic leaving that cluster (net::Network::arm_combining at
//     coll::kDefaultCombineBytes).
//   * tree collectives — when a cluster's ordered broadcasts are large
//     enough that gateway replication beats per-pair serialization (the
//     PR 7 shape rule), its wide-area dissemination switches to the
//     cluster tree (coll::Engine::set_mode).
//
// Determinism contract. Every input is simulated-clock state confined
// to one cluster's engine context: signal shards are written at the
// instrumentation site's own cluster, epoch evaluators are sim-time
// events scheduled in the cluster they evaluate, and cross-cluster
// actions travel as ordinary control messages. Nothing reads wall
// clock, the metrics registry (not partition-safe mid-run), or another
// cluster's shard — so adaptive runs stay byte-identical across
// --jobs/--partitions and under fault plans, like everything else.
//
// Hysteresis. A policy trips only after `hysteresis_epochs` consecutive
// hot epochs, and every policy is a one-way ratchet (the paper's §4
// optimizations are static program properties, so there is nothing to
// gain from disabling one again). Together these bound the number of
// policy transitions per run to one per (policy, cluster): policies
// never flap, which tests/integration/adaptive_test.cpp pins.
//
// Precedence. Explicit operator choices win over policy: an app-forced
// sequencer, an explicit --coll shape or an explicit --combine-bytes
// disable the corresponding action and are reported through the typed
// `orca/adapt.override.*` warning counters.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"

namespace alb::orca {

class Runtime;

namespace adapt {

struct Config {
  bool enabled = false;
  /// Monitor window. Epoch evaluators are pure state inspections at
  /// sim-time boundaries; they cost no simulated time themselves.
  sim::SimTime epoch_ns = 2'000'000;
  /// Consecutive hot epochs before a policy trips (the hysteresis).
  int hysteresis_epochs = 2;
  /// Migrate threshold installed by the arm message. Not 1 (the hand-
  /// optimized ASP's choice): the policy arms on any WAN-scale grant
  /// stalls, so the threshold itself must still distinguish a dominant
  /// writer block (ASP: hundreds of same-cluster requests) from
  /// interleaved writers (ACP, IDA*), where eager migration thrashes.
  int arm_threshold = 8;

  // --- detection thresholds, per window and per cluster ---------------
  // Each `*_min_*` value is an evidence floor: a policy's window keeps
  // accumulating across epoch boundaries until it holds that many
  // samples (low-rate patterns — ASP completes one multi-ms broadcast
  // every few epochs — must not be judged on empty windows). Once the
  // floor is met the window is judged hot or cold, the streak updated,
  // and that policy's window reset.
  /// Arm migration when the cluster's mean get-sequence wait per
  /// broadcast reaches this multiple of the minimum intercluster
  /// latency — i.e. grants are clearly crossing the WAN.
  double seq_wait_lat_factor = 1.0;
  std::uint64_t seq_min_bcasts = 2;
  /// Split the central queue when at least this share of the master's
  /// served gets came from remote clusters.
  double queue_remote_share = 0.5;
  std::uint64_t queue_min_gets = 8;
  /// Arm a cluster's gateway combining when at least this share of its
  /// data sends crossed clusters.
  double combine_remote_share = 0.25;
  std::uint64_t combine_min_items = 64;
  /// Switch a cluster to tree dissemination when its average broadcast
  /// payload clears the PR 7 shape rule for this many epochs.
  std::uint64_t tree_min_bcasts = 2;

  // --- precedence: explicit flags win over policy ---------------------
  bool allow_seq = true;
  bool allow_queue = true;
  bool allow_combine = true;
  bool allow_tree = true;
  /// Which explicit choices suppressed a policy (typed warning
  /// counters `orca/adapt.override.*`).
  bool seq_overridden = false;
  bool coll_overridden = false;
  bool combine_overridden = false;
};

class Engine {
 public:
  /// Construct after the sequencer/collective engines exist; call
  /// start() at setup time (it seeds one epoch event per cluster).
  Engine(Runtime& rt, const Config& cfg);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void start();

  // --- signal hooks: each must be called in cluster `c`'s context -----
  /// One ordered broadcast from cluster `c` waited `wait` ns for its
  /// sequence grant and shipped `bytes`.
  void note_seq_wait(net::ClusterId c, sim::SimTime wait, std::size_t bytes) {
    Shard& s = shard(c);
    s.seq_wait_ns += wait;
    ++s.seq_bcasts;
    s.tree_bytes += bytes;
    ++s.tree_bcasts;
    s.t_seq_wait_ns += static_cast<std::uint64_t>(wait);
    ++s.t_bcasts;
  }
  /// One central-queue get served at a master hosted in cluster `c`.
  void note_queue_get(net::ClusterId c, bool remote) {
    Shard& s = shard(c);
    ++s.gets;
    ++s.t_gets;
    if (remote) {
      ++s.gets_remote;
      ++s.t_gets_remote;
    }
  }
  /// One Runtime::send_data by a process in cluster `c`.
  void note_data_send(net::ClusterId c, bool remote) {
    Shard& s = shard(c);
    ++s.items;
    ++s.t_items;
    if (remote) {
      ++s.items_remote;
      ++s.t_items_remote;
    }
  }

  /// Registers a central queue's split action (setup time only). The
  /// callback runs in the master's cluster context at the epoch that
  /// trips the policy; it returns true when it actually moved jobs.
  using QueueSplitFn = std::function<bool()>;
  void register_queue_split(net::ClusterId master_cluster, QueueSplitFn fn) {
    queues_.push_back(QueuePolicy{master_cluster, std::move(fn), false});
  }

  /// Merges the per-cluster shards into `orca/adapt.*` counters.
  /// Post-run, assignment semantics — call once per finished run.
  void publish_metrics(trace::Metrics& m) const;

 private:
  /// Per-cluster monitor + controller state. Each shard is only touched
  /// in its cluster's engine context (instrumentation sites run there,
  /// and so does the cluster's epoch evaluator).
  struct alignas(64) Shard {
    // Per-policy window accumulators; each window is judged (and reset)
    // only once it holds its policy's evidence floor.
    sim::SimTime seq_wait_ns = 0;
    std::uint64_t seq_bcasts = 0;
    std::uint64_t tree_bytes = 0;
    std::uint64_t tree_bcasts = 0;
    std::uint64_t items = 0;
    std::uint64_t items_remote = 0;
    std::uint64_t gets = 0;
    std::uint64_t gets_remote = 0;
    // Hysteresis: consecutive hot epochs per policy.
    int seq_hot = 0;
    int combine_hot = 0;
    int tree_hot = 0;
    int queue_hot = 0;
    // Ratchets: set once, never cleared (policies do not flap).
    bool seq_armed = false;
    bool combine_on = false;
    bool tree_on = false;
    std::uint64_t splits = 0;  // queue-split actions that moved jobs
    std::uint64_t epochs = 0;
    // Lifetime signal totals (never reset; published as orca/adapt.sig.*
    // so a run's raw evidence is inspectable next to its decisions).
    std::uint64_t t_seq_wait_ns = 0;
    std::uint64_t t_bcasts = 0;
    std::uint64_t t_gets = 0;
    std::uint64_t t_gets_remote = 0;
    std::uint64_t t_items = 0;
    std::uint64_t t_items_remote = 0;
  };
  struct QueuePolicy {
    net::ClusterId cluster;
    QueueSplitFn fn;
    bool done;  // touched only in `cluster`'s context
  };

  Shard& shard(net::ClusterId c) { return shards_[static_cast<std::size_t>(c)]; }
  void on_epoch(net::ClusterId c);
  void schedule_next(net::ClusterId c);

  Runtime* rt_;
  net::Network* net_;
  Config cfg_;
  std::vector<Shard> shards_;
  std::vector<QueuePolicy> queues_;  // registered at setup, stable during the run
};

}  // namespace adapt
}  // namespace alb::orca
