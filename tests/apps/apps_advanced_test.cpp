// Correctness + optimization-effect tests for IDA*, RA, ACP and SOR.

#include <gtest/gtest.h>

#include "apps/acp.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"

namespace alb::apps {
namespace {

AppConfig cfg(int clusters, int per, bool optimized) {
  AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = net::das_config(clusters, per);
  c.optimized = optimized;
  return c;
}

// ---------------------------------------------------------------- IDA*
IdaParams small_ida() {
  IdaParams p;
  p.scramble_moves = 14;
  p.job_pool = 96;
  return p;
}

TEST(Ida, MatchesReferenceAcrossTopologies) {
  auto prm = small_ida();
  const IdaOutcome ref = ida_reference(prm, 42);
  EXPECT_GT(ref.solution_depth, 0);
  EXPECT_GT(ref.solutions, 0);
  const std::uint64_t want = ida_checksum(ref);
  for (bool opt : {false, true}) {
    for (auto [c, pp] : {std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 2}}) {
      AppResult r = run_ida(cfg(c, pp, opt), prm);
      EXPECT_EQ(r.checksum, want) << "clusters=" << c << " per=" << pp << " opt=" << opt;
    }
  }
}

TEST(Ida, SingleProcessMatchesReference) {
  auto prm = small_ida();
  AppResult r = run_ida(cfg(1, 1, false), prm);
  EXPECT_EQ(r.checksum, ida_checksum(ida_reference(prm, 42)));
}

TEST(Ida, SolvedRootInstanceTerminates) {
  IdaParams prm;
  prm.scramble_moves = 0;  // root already solved
  prm.job_pool = 8;
  AppResult r = run_ida(cfg(2, 2, false), prm);
  EXPECT_EQ(r.metrics["depth"], 0);
}

TEST(Ida, OptimizationReducesRemoteStealAttempts) {
  auto prm = small_ida();
  AppResult orig = run_ida(cfg(4, 2, false), prm);
  AppResult opt = run_ida(cfg(4, 2, true), prm);
  EXPECT_EQ(orig.checksum, opt.checksum);
  // §4.6: "the maximal number of intercluster RPCs has almost halved".
  EXPECT_LT(opt.metrics["remote_steal_attempts"],
            orig.metrics["remote_steal_attempts"]);
}

// ------------------------------------------------------------------ RA
RaParams small_ra() {
  RaParams p;
  p.stones = 4;
  p.node_batch = 4;
  return p;
}

TEST(Ra, MatchesReferenceAcrossTopologies) {
  auto prm = small_ra();
  const RaOutcome ref = ra_reference(prm);
  EXPECT_GT(ref.wins + ref.losses + ref.draws, 0);
  const std::uint64_t want = ra_checksum(ref);
  for (bool opt : {false, true}) {
    for (auto [c, pp] : {std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 2}}) {
      AppResult r = run_ra(cfg(c, pp, opt), prm);
      EXPECT_EQ(r.checksum, want) << "clusters=" << c << " per=" << pp << " opt=" << opt;
    }
  }
}

TEST(Ra, DatabaseHasAllThreeValues) {
  RaParams prm;
  prm.stones = 5;
  RaOutcome ref = ra_reference(prm);
  EXPECT_GT(ref.wins, 0);
  EXPECT_GT(ref.losses, 0);
  // Draws may legitimately be zero for tiny databases; don't require.
  EXPECT_EQ(ref.wins + ref.losses + ref.draws,
            static_cast<long long>(ref.wins + ref.losses + ref.draws));
}

TEST(Ra, CombiningCutsInterClusterMessages) {
  auto prm = small_ra();
  AppResult orig = run_ra(cfg(2, 2, false), prm);
  AppResult opt = run_ra(cfg(2, 2, true), prm);
  EXPECT_EQ(orig.checksum, opt.checksum);
  EXPECT_LT(opt.traffic.kind(net::MsgKind::Data).inter_msgs,
            orig.traffic.kind(net::MsgKind::Data).inter_msgs);
  // The optimized program is the original one plus gateway combining.
  EXPECT_GT(opt.stats.value("net/wan.combined.flushes"), 0.0);
  EXPECT_EQ(orig.stats.value("net/wan.combined.flushes"), 0.0);
}

TEST(Ra, NodeBatchingCutsDataMessages) {
  auto batched = small_ra();
  auto single = small_ra();
  single.node_batch = 1;
  AppResult b = run_ra(cfg(1, 4, false), batched);
  AppResult s1 = run_ra(cfg(1, 4, false), single);
  EXPECT_EQ(b.checksum, s1.checksum);
  EXPECT_EQ(b.checksum, ra_checksum(ra_reference(batched)));
  EXPECT_GT(b.traffic.kind(net::MsgKind::Data).intra_msgs, 0u);
  EXPECT_LT(b.traffic.kind(net::MsgKind::Data).intra_msgs,
            s1.traffic.kind(net::MsgKind::Data).intra_msgs);
}

// ----------------------------------------------------------------- ACP
AcpParams small_acp() {
  AcpParams p;
  p.variables = 60;
  p.tightness = 0.9;  // tight enough that revisions actually prune
  return p;
}

TEST(Acp, MatchesReferenceAcrossTopologies) {
  auto prm = small_acp();
  const std::uint64_t want = acp_reference_checksum(prm, 42);
  for (bool opt : {false, true}) {
    for (auto [c, pp] : {std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 2}}) {
      AppResult r = run_acp(cfg(c, pp, opt), prm);
      EXPECT_EQ(r.checksum, want) << "clusters=" << c << " per=" << pp << " opt=" << opt;
    }
  }
}

TEST(Acp, SingleProcessMatchesReference) {
  auto prm = small_acp();
  AppResult r = run_acp(cfg(1, 1, false), prm);
  EXPECT_EQ(r.checksum, acp_reference_checksum(prm, 42));
}

TEST(Acp, AsyncBroadcastIsFasterOnMulticluster) {
  auto prm = small_acp();
  AppResult orig = run_acp(cfg(4, 2, false), prm);
  AppResult opt = run_acp(cfg(4, 2, true), prm);
  EXPECT_EQ(orig.checksum, opt.checksum);
  EXPECT_GT(opt.metrics["writes"], 0);
  EXPECT_LT(opt.elapsed, orig.elapsed);
}

// ----------------------------------------------------------------- SOR
SorParams small_sor() {
  SorParams p;
  p.rows = 48;
  p.cols = 32;
  p.omega = 1.88;  // near-optimal for 48 rows: converges in ~100 iters
  p.max_iterations = 600;
  return p;
}

TEST(Sor, OriginalMatchesSequentialBitExactly) {
  auto prm = small_sor();
  const SorOutcome ref = sor_reference(prm, 42);
  EXPECT_LT(ref.final_residual, prm.tolerance);
  for (auto [c, pp] : {std::pair{1, 4}, std::pair{2, 2}, std::pair{4, 2}}) {
    AppResult r = run_sor(cfg(c, pp, false), prm);
    EXPECT_EQ(r.checksum, sor_checksum(ref)) << "clusters=" << c << " per=" << pp;
    EXPECT_EQ(r.metrics["iterations"], ref.iterations);
  }
}

TEST(Sor, SplitPhaseIsBitIdenticalToOriginal) {
  auto prm = small_sor();
  prm.variant = SorVariant::kSplitPhase;
  const SorOutcome ref = sor_reference(prm, 42);
  AppResult r = run_sor(cfg(2, 2, false), prm);
  EXPECT_EQ(r.checksum, sor_checksum(ref));
}

TEST(Sor, ChaoticConvergesWithModestIterationPenalty) {
  // Paper §4.8: dropping 2 of 3 intercluster exchanges cost 5-10% extra
  // iterations — in their regime of modest relaxation and thick row
  // blocks (3500 rows / 60 processes). Reproduce that regime: omega 1.3,
  // 48-row blocks, 4 clusters.
  SorParams prm;
  prm.rows = 192;
  prm.cols = 32;
  prm.omega = 1.3;
  prm.max_iterations = 3000;
  const SorOutcome ref = sor_reference(prm, 42);
  AppResult r = run_sor(cfg(4, 1, true), prm);
  EXPECT_LT(r.metrics["residual"], prm.tolerance);
  EXPECT_GE(r.metrics["iterations"], ref.iterations);
  EXPECT_LE(r.metrics["iterations"], ref.iterations * 1.12);
}

TEST(Sor, ChaoticPenaltyGrowsWithAggressiveOmega) {
  // The flip side the paper hints at ("convergence becomes slower"):
  // with near-optimal overrelaxation the stale boundaries hurt much
  // more. This pins the trade-off the ablation bench sweeps.
  SorParams prm;
  prm.rows = 96;
  prm.cols = 32;
  prm.omega = 1.88;
  prm.max_iterations = 3000;
  const SorOutcome ref = sor_reference(prm, 42);
  AppResult r = run_sor(cfg(4, 1, true), prm);
  EXPECT_GT(r.metrics["iterations"], ref.iterations * 1.5);
}

TEST(Sor, ChaoticCutsInterClusterTraffic) {
  // Iteration-controlled comparison: same work, strictly less WAN
  // traffic (that is the whole point of dropping exchanges).
  auto prm = small_sor();
  prm.fixed_iterations = 60;
  AppResult orig = run_sor(cfg(4, 2, false), prm);
  AppResult opt = run_sor(cfg(4, 2, true), prm);
  EXPECT_LT(opt.traffic.kind(net::MsgKind::Data).inter_msgs,
            orig.traffic.kind(net::MsgKind::Data).inter_msgs * 2 / 3 + 1);
  EXPECT_EQ(opt.traffic.kind(net::MsgKind::Data).intra_msgs,
            orig.traffic.kind(net::MsgKind::Data).intra_msgs);
}

TEST(Sor, SingleProcessMatchesReference) {
  auto prm = small_sor();
  AppResult r = run_sor(cfg(1, 1, false), prm);
  EXPECT_EQ(r.checksum, sor_checksum(sor_reference(prm, 42)));
}

}  // namespace
}  // namespace alb::apps
