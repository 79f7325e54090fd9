// Golden-value determinism tests.
//
// The engine's trace hash folds the canonical (time, lamport, owner)
// triple of *every* event a run dispatches, so it pins the complete
// event schedule — times, counts and ordering — of a whole simulation.
// These golden values must never change: any scheduling refactor
// (event-queue storage, coroutine resume fast path, network hop
// restructuring) has to be bit-identical to the original semantics to
// pass. If a change legitimately alters the schedule (a new protocol, a
// changed cost model), that is a behaviour change, not a refactor — this
// file must be re-goldened in the same PR with a written justification.
//
// Re-goldened (partitioned-engine PR), two distinct causes:
//
//  * Hash definition: the old (time, global-seq) FNV stream became an
//    owner-decomposed fold over canonical (time, lamport, owner) keys,
//    so the value is identical for `--partitions 1` and
//    `--partitions N`. This alone re-keys every trace_hash even where
//    the schedule is unchanged (the TSP pins: events and elapsed below
//    are byte-for-byte the pre-refactor seed values).
//
//  * Sequencer protocols: partition safety forbids one cluster reading
//    another's state, so the rotating token's wakeup kick now chases
//    the parked token hop-by-hop around the ring (total cost per
//    broadcast: exactly one revolution, the paper's "each cluster
//    broadcasts in turn"), and the migrating sequencer's relocation
//    hint is a routed message instead of an instant pointer swap.
//    Both change the ASP schedules (counts and elapsed move a few
//    percent); the paper-claim ratios they exist to reproduce are
//    pinned in paper_claims_test.cpp and still hold.
//
// Application checksums are unchanged everywhere: the computed answers
// did not move, only control-plane scheduling.
//
// Scenario: the 4-cluster ASP, TSP and ATPG runs of the acceptance
// criteria (small calibrated workloads; both the original and the
// wide-area-optimized variants), plus a pure-engine synthetic schedule.

#include <gtest/gtest.h>

#include "apps/acp.hpp"
#include "apps/asp.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/tsp.hpp"
#include "net/presets.hpp"
#include "sim/engine.hpp"

namespace alb::apps {
namespace {

AppConfig cfg4(bool optimized) {
  AppConfig c;
  c.clusters = 4;
  c.procs_per_cluster = 2;
  c.net_cfg = net::das_config(4, 2);
  c.optimized = optimized;
  c.seed = 42;
  return c;
}

struct Golden {
  std::uint64_t trace_hash;
  std::uint64_t events;
  sim::SimTime elapsed;
  std::uint64_t checksum;
};

void expect_golden(const AppResult& r, const Golden& g, const char* what) {
  EXPECT_EQ(r.trace_hash, g.trace_hash) << what << ": event schedule changed";
  EXPECT_EQ(r.events, g.events) << what << ": event count changed";
  EXPECT_EQ(r.elapsed, g.elapsed) << what << ": simulated run time changed";
  EXPECT_EQ(r.checksum, g.checksum) << what << ": computed answer changed";
}

TEST(TraceGolden, Asp4ClusterOriginal) {
  AspParams p;
  p.nodes = 64;
  expect_golden(run_asp(cfg4(false), p),
                Golden{10104232891845147170ull, 4412ull, 379949263,
                       8836462817929870582ull},
                "ASP original");
}

TEST(TraceGolden, Asp4ClusterOptimized) {
  AspParams p;
  p.nodes = 64;
  expect_golden(run_asp(cfg4(true), p),
                Golden{3766858901267215559ull, 2787ull, 48915170,
                       8836462817929870582ull},
                "ASP optimized");
}

TEST(TraceGolden, Tsp4ClusterOriginal) {
  TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  expect_golden(run_tsp(cfg4(false), p),
                Golden{14821323580145850140ull, 731ull, 21621317,
                       9644552255054130231ull},
                "TSP original");
}

TEST(TraceGolden, Tsp4ClusterOptimized) {
  TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  expect_golden(run_tsp(cfg4(true), p),
                Golden{1766433423914237749ull, 341ull, 8184521,
                       9644552255054130231ull},
                "TSP optimized");
}

// ATPG's simulated compute is evals x ns_per_gate_eval, so these pins
// also fix the gate-evaluation count of every fault the kernel tests.
TEST(TraceGolden, Atpg4ClusterOriginal) {
  expect_golden(run_atpg(cfg4(false), AtpgParams{}),
                Golden{7605656629576097032ull, 29424ull, 7912756480,
                       2739595993063765949ull},
                "ATPG original");
}

TEST(TraceGolden, Atpg4ClusterOptimized) {
  expect_golden(run_atpg(cfg4(true), AtpgParams{}),
                Golden{15497775523442545684ull, 2449ull, 7084286222,
                       2739595993063765949ull},
                "ATPG optimized");
}

// Centralized-sequencer pins: the single-cluster default and an
// explicitly centralized multicluster ASP, clean and under a lossy plan
// (only the faulted run exercises the duplicate-request regrant path).
AppConfig cfg_single_cluster() {
  AppConfig c;
  c.procs_per_cluster = 8;
  c.net_cfg = net::das_config(1, 8);
  c.seed = 42;
  return c;
}

AppConfig cfg_centralized_4x4(bool faulted) {
  AppConfig c;
  c.clusters = 4;
  c.procs_per_cluster = 4;
  c.net_cfg = net::das_config(4, 4);
  c.seed = 42;
  if (faulted) {
    c.faults.enabled = true;
    c.faults.wan.loss = 0.05;
    c.faults.wan.latency_jitter = 0.25;
  }
  return c;
}

AspParams centralized_asp() {
  AspParams p;
  p.nodes = 256;
  p.sequencer = orca::SequencerKind::Centralized;
  return p;
}

TEST(TraceGolden, Asp1ClusterOriginal) {
  expect_golden(run_asp(cfg_single_cluster(), AspParams{}),
                Golden{3400039830235895280ull, 25656ull, 22677940928,
                       15123787271214005960ull}, "ASP original 1x8");
}

TEST(TraceGolden, Asp4ClusterCentralized) {
  expect_golden(run_asp(cfg_centralized_4x4(false), centralized_asp()),
                Golden{2454100362237548094ull, 21472ull, 1027704640,
                       6583342626564409123ull}, "ASP centralized 4x4");
}

TEST(TraceGolden, Asp4ClusterCentralizedFaulted) {
  const AppResult r = run_asp(cfg_centralized_4x4(true), centralized_asp());
  EXPECT_GT(r.stats.value("net/fault.dup.seq_requests"), 0.0)
      << "plan never retried a get-sequence; the regrant path is not exercised";
  expect_golden(r, Golden{236946785522886943ull, 21745ull, 1289453820,
                       6583342626564409123ull}, "ASP centralized 4x4 faulted");
}

// Rotating-sequencer pins at the benchmark geometries (bench_default
// workloads, seed 42): ACP orig and both IDA* variants order their
// writes through the rotating token; RA orig and ACP opt issue no
// sequence numbers and pin the runs the sequencer must not touch.
//
// Re-goldened when superseded kicks started dying at their origin
// (generation-stamped kicks, see RotatingSequencer): the four rotating
// runs lose their zombie kick traffic (ACP orig 2x2: 8 012 983 -> 142 615
// events, 36.2 s -> 9.46 s simulated; IDA* keeps its simulated time),
// while every checksum and both non-rotating pins stay unchanged.
AppConfig cfg_das(int clusters, int per, bool optimized) {
  AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = net::das_config(clusters, per);
  c.optimized = optimized;
  c.seed = 42;
  return c;
}

TEST(TraceGolden, Acp2x2Original) {
  expect_golden(run_acp(cfg_das(2, 2, false), AcpParams::bench_default()),
                Golden{10663066369787948020ull, 142615ull, 9460055773,
                       3677434539002926882ull},
                "ACP original 2x2");
}

TEST(TraceGolden, Acp4ClusterOriginal) {
  expect_golden(run_acp(cfg_das(4, 15, false), AcpParams::bench_default()),
                Golden{11468739817912404273ull, 522757ull, 1083370257,
                       3677434539002926882ull},
                "ACP original 4x15");
}

TEST(TraceGolden, Acp4ClusterOptimized) {
  expect_golden(run_acp(cfg_das(4, 15, true), AcpParams::bench_default()),
                Golden{11132915680479037317ull, 526838ull, 553759915,
                       3677434539002926882ull},
                "ACP optimized 4x15");
}

TEST(TraceGolden, Ida4ClusterOriginal) {
  expect_golden(run_ida(cfg_das(4, 15, false), IdaParams::bench_default()),
                Golden{3342771644775043762ull, 394172ull, 869038315,
                       17893699008643296926ull},
                "IDA* original 4x15");
}

TEST(TraceGolden, Ida4ClusterOptimized) {
  expect_golden(run_ida(cfg_das(4, 15, true), IdaParams::bench_default()),
                Golden{9716695126348049913ull, 455651ull, 740753608,
                       17893699008643296926ull},
                "IDA* optimized 4x15");
}

TEST(TraceGolden, Ra4ClusterOriginal) {
  expect_golden(run_ra(cfg_das(4, 15, false), RaParams::bench_default()),
                Golden{4328040983562207229ull, 325672ull, 420969567,
                       13935634963118638907ull},
                "RA original 4x15");
}

TEST(TraceGolden, Ra4ClusterOptimized) {
  expect_golden(run_ra(cfg_das(4, 15, true), RaParams::bench_default()),
                Golden{9287674384585120516ull, 324163ull, 366353351,
                       13935634963118638907ull},
                "RA optimized 4x15");
}

// The partitioned engine at the benchmark's partitioned geometry: one
// partition per cluster, each on its own thread.
TEST(TraceGolden, Ra4x16Partitioned) {
  AppConfig c = cfg_das(4, 16, false);
  c.partitions = 4;
  c.threads = 4;
  expect_golden(run_ra(c, RaParams::bench_default()),
                Golden{7643089597814707805ull, 349340ull, 445031579,
                       13935634963118638907ull},
                "RA original 4x16, 4 partitions");
}

// node_batch = 1 sends every update as its own kTagUpdate message
// instead of per-destination batches.
TEST(TraceGolden, RaPerUpdateMessages) {
  RaParams prm;
  prm.stones = 6;
  prm.node_batch = 1;
  expect_golden(run_ra(cfg4(false), prm),
                Golden{12881711397607229761ull, 98313ull, 204815861,
                       12580739881790597950ull},
                "RA original 4x2, unbatched updates");
}

// Pure-engine golden: a synthetic schedule with same-time ties, nested
// scheduling and run_until boundaries. Isolates engine/event-queue
// regressions from the full-stack scenarios above.
TEST(TraceGolden, SyntheticEngineSchedule) {
  sim::Engine eng;
  for (int i = 0; i < 200; ++i) {
    eng.schedule_after(i * 13 % 29, [&eng] {
      eng.schedule_after(7, [] {});
    });
  }
  eng.run_until(20);
  eng.schedule_after(0, [] {});
  eng.run();
  EXPECT_EQ(eng.trace_hash(), 14985983881153370895ull);
  EXPECT_EQ(eng.events_processed(), 401ull);
}

}  // namespace
}  // namespace alb::apps
