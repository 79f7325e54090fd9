// The adaptive policy engine (--adapt, docs/ADAPTIVE.md) must keep the
// engine's determinism contract — adaptive decisions are pure sim-time
// functions, so adaptive runs are byte-identical on any partition
// count, clean or faulted — and its policy state machines must act at
// most once per (policy, cluster) (the no-flap ratchet), with explicit
// flags winning over policy through the typed override counters.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "apps/app.hpp"
#include "apps/asp.hpp"
#include "apps/ra.hpp"
#include "apps/tsp.hpp"
#include "net/presets.hpp"

namespace alb::apps {
namespace {

AppConfig base_cfg(int per_cluster = 2) {
  AppConfig c;
  c.clusters = 4;
  c.procs_per_cluster = per_cluster;
  c.net_cfg = net::das_config(4, per_cluster);
  c.seed = 42;
  c.adapt = true;
  return c;
}

void expect_identical(const AppResult& ref, const AppResult& r, const std::string& what) {
  EXPECT_EQ(r.elapsed, ref.elapsed) << what << ": simulated run time diverged";
  EXPECT_EQ(r.checksum, ref.checksum) << what << ": computed answer diverged";
  EXPECT_EQ(r.events, ref.events) << what << ": event count diverged";
  EXPECT_EQ(r.trace_hash, ref.trace_hash) << what << ": event schedule diverged";
  EXPECT_EQ(r.status, ref.status) << what << ": run status diverged";
}

void expect_same_decisions(const AppResult& ref, const AppResult& r, const std::string& what) {
  for (const char* m : {"orca/adapt.epochs", "orca/adapt.seq.arms", "orca/adapt.queue.splits",
                        "orca/adapt.combine.enabled", "orca/adapt.tree.enabled"}) {
    EXPECT_EQ(r.stats.value(m), ref.stats.value(m)) << what << ": " << m << " diverged";
  }
}

TEST(AdaptiveDeterminism, AdaptiveRunsByteIdenticalAcrossPartitionsForEveryApp) {
  for (const AppEntry& app : registry()) {
    const AppConfig cfg = base_cfg();
    const AppResult ref = app.run(cfg);  // partitions = 1: reference
    for (int partitions : {2, 4}) {
      AppConfig pcfg = cfg;
      pcfg.partitions = partitions;
      const AppResult r = app.run(pcfg);
      expect_identical(ref, r, app.name + "/adapt/P" + std::to_string(partitions));
      expect_same_decisions(ref, r, app.name + "/adapt/P" + std::to_string(partitions));
    }
  }
}

TEST(AdaptiveDeterminism, FaultedAdaptiveRunsStayDeterministic) {
  // Epoch chains retire on locally-observed failures and the arm/split
  // control messages ride the faulted WAN; the canonical schedule must
  // survive partitioning anyway.
  TspParams prm;
  prm.cities = 10;
  prm.job_depth = 3;
  AppConfig cfg = base_cfg();
  cfg.faults.enabled = true;
  cfg.faults.wan.loss = 0.1;
  cfg.faults.wan.latency_jitter = 0.25;
  const AppResult ref = run_tsp(cfg, prm);
  EXPECT_GT(ref.stats.value("net/fault.drops"), 0.0)
      << "plan produced no drops; the faulted case is not exercising recovery";
  for (int partitions : {2, 4}) {
    AppConfig pcfg = cfg;
    pcfg.partitions = partitions;
    expect_identical(ref, run_tsp(pcfg, prm),
                     "TSP/adapt+faults/P" + std::to_string(partitions));
  }
}

TEST(AdaptiveDeterminism, AdaptOffPublishesNothingAndRunsClassicPaths) {
  AppConfig cfg = base_cfg();
  cfg.adapt = false;
  AspParams prm;
  prm.nodes = 64;
  const AppResult r = run_asp(cfg, prm);
  EXPECT_EQ(r.stats.value("orca/adapt.epochs"), 0.0)
      << "adapt off must not run the engine (trace goldens pin byte-identity)";
}

TEST(AdaptiveDeterminism, UntrippedAdaptOrdersThroughCentralizedSequencer) {
  // Too few broadcasts to arm migration: the run must order every
  // broadcast through the centralized sequencer at node 0 — no token
  // hops, unlike the rotating multicluster default it replaces.
  AspParams prm;
  prm.nodes = 12;
  AppConfig cfg = base_cfg();
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1 << 20;
  AppConfig plain = cfg;
  plain.adapt = false;
  const auto count_tokens = [](const AppResult& r) {
    int tokens = 0;
    for (const trace::TraceEvent& e : r.trace->events) {
      if (std::string(e.name) == "orca.seq.token") ++tokens;
    }
    return tokens;
  };

  const AppResult r = run_asp(cfg, prm);
  ASSERT_EQ(r.stats.value("orca/adapt.seq.arms"), 0.0) << "workload must not trip the policy";
  EXPECT_EQ(count_tokens(r), 0);
  int remote_issues = 0;
  for (const trace::TraceEvent& e : r.trace->events) {
    if (std::string(e.name) != "orca.seq.issue") continue;
    EXPECT_EQ(e.actor, 0) << "sequence number issued away from node 0";
    if (e.arg >= static_cast<std::uint64_t>(cfg.procs_per_cluster)) ++remote_issues;
  }
  EXPECT_GT(remote_issues, 0) << "no grant went to a requester outside cluster 0";
  EXPECT_GT(count_tokens(run_asp(plain, prm)), 0) << "non-adaptive default should rotate";
}

TEST(AdaptivePolicies, AspArmsSequencerMigrationAndApproachesHandOptimized) {
  AspParams prm;
  prm.nodes = 256;
  AppConfig orig = base_cfg(4);
  orig.adapt = false;
  AppConfig aut = base_cfg(4);
  AppConfig opt = base_cfg(4);
  opt.adapt = false;
  opt.optimized = true;
  const AppResult r_orig = run_asp(orig, prm);
  const AppResult r_auto = run_asp(aut, prm);
  const AppResult r_opt = run_asp(opt, prm);
  EXPECT_GE(r_auto.stats.value("orca/adapt.seq.arms"), 1.0)
      << "ASP's grant stalls must arm migration";
  EXPECT_EQ(r_auto.checksum, r_orig.checksum);
  EXPECT_LT(r_auto.elapsed, r_orig.elapsed) << "auto must strictly beat orig";
  EXPECT_LE(static_cast<double>(r_auto.elapsed), 1.25 * static_cast<double>(r_opt.elapsed))
      << "auto must land within 25% of the hand-optimized variant";
}

TEST(AdaptivePolicies, PoliciesActAtMostOncePerClusterUnderOscillatingLoad) {
  // RA's phase structure turns its data sends on and off repeatedly
  // (bursts between barriers). The ratchet bounds the adaptive engine
  // to at most one transition per (policy, cluster): the signal may
  // oscillate, the policies must not.
  AppConfig cfg = base_cfg(4);
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1 << 20;
  const AppResult r = run_ra(cfg, RaParams::bench_default());
  std::map<std::pair<std::string, std::uint64_t>, int> transitions;
  for (const trace::TraceEvent& e : r.trace->events) {
    const std::string name = e.name;
    if (name.rfind("orca.adapt.", 0) == 0) ++transitions[{name, e.id}];
  }
  EXPECT_FALSE(transitions.empty()) << "expected at least one adaptive action on RA";
  for (const auto& [key, count] : transitions) {
    EXPECT_EQ(count, 1) << key.first << " flapped on cluster " << key.second;
  }
  const double combined = r.stats.value("orca/adapt.combine.enabled");
  EXPECT_GE(combined, 1.0) << "RA's remote-dominated items must enable combining";
  EXPECT_LE(combined, 4.0) << "at most one combine transition per cluster";
  EXPECT_GT(r.stats.value("net/wan.combined.flushes"), 0.0)
      << "the combine policy must actually arm gateway combining";
}

TEST(AdaptivePrecedence, ExplicitCollectiveShapeWinsOverTreePolicy) {
  AppConfig cfg = base_cfg();
  cfg.coll = orca::coll::Mode::Tree;
  AspParams prm;
  prm.nodes = 64;
  const AppResult r = run_asp(cfg, prm);
  EXPECT_EQ(r.stats.value("orca/adapt.override.coll"), 1.0)
      << "explicit --coll must be reported as a typed override warning";
  EXPECT_EQ(r.stats.value("orca/adapt.tree.enabled"), 0.0)
      << "the tree policy must stay suppressed under an explicit --coll";
}

TEST(AdaptivePrecedence, ExplicitCombineBytesWinsOverCombinePolicy) {
  AppConfig cfg = base_cfg(4);
  cfg.combine_bytes = 0;  // explicitly off — the policy must not re-enable it
  const AppResult r = run_ra(cfg, RaParams::bench_default());
  EXPECT_EQ(r.stats.value("orca/adapt.override.combine"), 1.0);
  EXPECT_EQ(r.stats.value("orca/adapt.combine.enabled"), 0.0);
  EXPECT_EQ(r.stats.value("net/wan.combined.flushes"), 0.0)
      << "an explicit --combine-bytes=0 must keep combining off for the whole run";
}

TEST(AdaptivePrecedence, AppForcedSequencerWinsOverMigrationPolicy) {
  AspParams prm;
  prm.nodes = 256;
  prm.sequencer = orca::SequencerKind::Centralized;
  AppConfig cfg = base_cfg(4);
  const AppResult r = run_asp(cfg, prm);
  EXPECT_EQ(r.stats.value("orca/adapt.override.seq"), 1.0)
      << "an app-forced sequencer must be reported as a typed override warning";
  EXPECT_EQ(r.stats.value("orca/adapt.seq.arms"), 0.0)
      << "the migration policy must stay suppressed under a forced sequencer";
}

}  // namespace
}  // namespace alb::apps
