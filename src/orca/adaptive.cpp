#include "orca/adaptive.hpp"

#include "orca/runtime.hpp"

namespace alb::orca::adapt {

Engine::Engine(Runtime& rt, const Config& cfg)
    : rt_(&rt), net_(&rt.network()), cfg_(cfg) {
  shards_.resize(static_cast<std::size_t>(net_->topology().clusters()));
}

void Engine::start() {
  if (!cfg_.enabled || net_->topology().clusters() <= 1) return;
  // One evaluator chain per cluster. The first event is a setup-time
  // cross-owner schedule (allowed); every later one is rescheduled
  // owner-locally from inside the chain, so the whole chain runs in its
  // cluster's context.
  for (net::ClusterId c = 0; c < net_->topology().clusters(); ++c) {
    net_->engine().schedule_on(static_cast<sim::OwnerId>(c), cfg_.epoch_ns,
                               [this, c]() { schedule_next(c); });
  }
}

void Engine::schedule_next(net::ClusterId c) {
  // Retire the chain once the cluster's processes are done (or its
  // failure was observed here) — otherwise Engine::run() never drains.
  if (rt_->cluster_quiescent(c)) return;
  if (net::FaultInjector* f = net_->faults(); f != nullptr && f->failed(c)) return;
  on_epoch(c);
  net_->engine().schedule_after(cfg_.epoch_ns, [this, c]() { schedule_next(c); });
}

void Engine::on_epoch(net::ClusterId c) {
  Shard& s = shard(c);
  ++s.epochs;
  trace::Recorder* rec = net_->engine().tracer();
  const auto leader = static_cast<std::int32_t>(net_->topology().compute_node(c, 0));
  const auto cid = static_cast<std::uint64_t>(c);

  // A policy's window keeps accumulating until it holds the evidence
  // floor; only then is it judged hot/cold, the streak updated, and the
  // window reset. Low-rate patterns (ASP completes one multi-ms
  // broadcast every few epochs) are judged on real evidence instead of
  // being reset by the empty epochs in between.

  // Sequencer migration: the cluster's broadcasts stall WAN-scale on
  // sequence grants — arm demand-driven migration at the active
  // location (a routed control message; see MigratingSequencer).
  if (cfg_.allow_seq && !s.seq_armed && s.seq_bcasts >= cfg_.seq_min_bcasts) {
    const double mean_wait =
        static_cast<double>(s.seq_wait_ns) / static_cast<double>(s.seq_bcasts);
    const bool hot = mean_wait >= cfg_.seq_wait_lat_factor *
                                      static_cast<double>(net_->config().min_intercluster_latency());
    s.seq_hot = hot ? s.seq_hot + 1 : 0;
    s.seq_wait_ns = 0;
    s.seq_bcasts = 0;
    if (s.seq_hot >= cfg_.hysteresis_epochs) {
      s.seq_armed = true;
      if (rec) {
        rec->instant(trace::Category::Orca, "orca.adapt.seq.arm", leader, cid,
                     static_cast<std::uint64_t>(cfg_.arm_threshold));
      }
      rt_->sequencer().adapt_arm(net_->topology().compute_node(c, 0), cfg_.arm_threshold);
    }
  }

  // Cluster-level combining: the cluster's data sends are remote-
  // dominated — combine them at its gateway from now on.
  if (cfg_.allow_combine && !s.combine_on && s.items >= cfg_.combine_min_items) {
    const bool hot = static_cast<double>(s.items_remote) >=
                     cfg_.combine_remote_share * static_cast<double>(s.items);
    s.combine_hot = hot ? s.combine_hot + 1 : 0;
    s.items = 0;
    s.items_remote = 0;
    if (s.combine_hot >= cfg_.hysteresis_epochs) {
      s.combine_on = true;
      net_->arm_combining(c, coll::kDefaultCombineBytes);
      if (rec) {
        rec->instant(trace::Category::Orca, "orca.adapt.combine.on", leader, cid, 0);
      }
    }
  }

  // Tree collectives: the cluster's ordered broadcasts are large enough
  // that gateway replication beats per-pair serialization (the same
  // rule coll::Engine applies per payload, evaluated on the window's
  // average payload so the switch is worth a policy change).
  if (cfg_.allow_tree && !s.tree_on && s.tree_bcasts >= cfg_.tree_min_bcasts) {
    const net::TopologyConfig& tc = net_->config();
    const std::uint64_t avg = s.tree_bytes / s.tree_bcasts;
    const bool hot = tc.access.serialize_time(avg) > tc.gateway_forward_overhead;
    s.tree_hot = hot ? s.tree_hot + 1 : 0;
    s.tree_bytes = 0;
    s.tree_bcasts = 0;
    if (s.tree_hot >= cfg_.hysteresis_epochs) {
      s.tree_on = true;
      rt_->coll().set_mode(c, coll::Mode::Tree);
      if (rec) {
        rec->instant(trace::Category::Orca, "orca.adapt.tree.on", leader, cid, avg);
      }
    }
  }

  // Central-queue split: masters hosted in this cluster whose get
  // stream is remote-dominated repartition their remaining jobs.
  if (cfg_.allow_queue && s.gets >= cfg_.queue_min_gets) {
    const bool hot = static_cast<double>(s.gets_remote) >=
                     cfg_.queue_remote_share * static_cast<double>(s.gets);
    s.queue_hot = hot ? s.queue_hot + 1 : 0;
    const std::uint64_t gets_remote = s.gets_remote;
    s.gets = 0;
    s.gets_remote = 0;
    if (s.queue_hot >= cfg_.hysteresis_epochs) {
      for (QueuePolicy& q : queues_) {
        if (q.cluster != c || q.done) continue;
        q.done = true;  // one-shot whether or not jobs remained
        if (q.fn()) {
          ++s.splits;
          if (rec) {
            rec->instant(trace::Category::Orca, "orca.adapt.queue.split", leader, cid,
                         gets_remote);
          }
        }
      }
    }
  }
}

void Engine::publish_metrics(trace::Metrics& m) const {
  std::uint64_t epochs = 0, arms = 0, combine = 0, tree = 0, splits = 0;
  std::uint64_t wait = 0, bcasts = 0, gets = 0, gets_r = 0, items = 0, items_r = 0;
  for (const Shard& s : shards_) {
    epochs += s.epochs;
    arms += s.seq_armed ? 1 : 0;
    combine += s.combine_on ? 1 : 0;
    tree += s.tree_on ? 1 : 0;
    splits += s.splits;
    wait += s.t_seq_wait_ns;
    bcasts += s.t_bcasts;
    gets += s.t_gets;
    gets_r += s.t_gets_remote;
    items += s.t_items;
    items_r += s.t_items_remote;
  }
  *m.counter("orca/adapt.epochs") = epochs;
  *m.counter("orca/adapt.sig.seq_wait_ns") = wait;
  *m.counter("orca/adapt.sig.bcasts") = bcasts;
  *m.counter("orca/adapt.sig.gets") = gets;
  *m.counter("orca/adapt.sig.gets_remote") = gets_r;
  *m.counter("orca/adapt.sig.items") = items;
  *m.counter("orca/adapt.sig.items_remote") = items_r;
  *m.counter("orca/adapt.seq.arms") = arms;
  *m.counter("orca/adapt.combine.enabled") = combine;
  *m.counter("orca/adapt.tree.enabled") = tree;
  *m.counter("orca/adapt.queue.splits") = splits;
  // Typed precedence warnings: an explicit flag suppressed a policy.
  *m.counter("orca/adapt.override.seq") = cfg_.seq_overridden ? 1 : 0;
  *m.counter("orca/adapt.override.coll") = cfg_.coll_overridden ? 1 : 0;
  *m.counter("orca/adapt.override.combine") = cfg_.combine_overridden ? 1 : 0;
}

}  // namespace alb::orca::adapt
