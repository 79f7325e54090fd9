// StealScheduler tests.

#include <gtest/gtest.h>

#include "core/work_stealing.hpp"
#include "net/presets.hpp"

namespace alb::wide {
namespace {

struct Fixture {
  sim::Engine eng;
  net::Network net;
  orca::Runtime rt;
  explicit Fixture(net::TopologyConfig cfg) : net(eng, cfg), rt(net) {}
};

TEST(StealScheduler, LocalPushPopIsLifoAndFree) {
  Fixture f(net::das_config(1, 2));
  StealScheduler<int> s(f.rt, {});
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.rank != 0) co_return;
    s.push_local(p, 1);
    s.push_local(p, 2);
    EXPECT_EQ(s.pop_local(p), 2);
    EXPECT_EQ(s.pop_local(p), 1);
    EXPECT_EQ(s.pop_local(p), std::nullopt);
    EXPECT_EQ(p.now(), 0);
  });
  f.rt.run_all();
  EXPECT_EQ(f.net.stats().total_messages(), 0u);
}

TEST(StealScheduler, StealTakesOldestJobs) {
  Fixture f(net::das_config(1, 2));
  StealScheduler<int>::Options opt;
  opt.steal_chunk = 2;
  StealScheduler<int> s(f.rt, opt);
  std::vector<int> stolen;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      for (int i = 1; i <= 4; ++i) s.push_local(p, i);
      co_await p.compute(sim::milliseconds(1));
    } else {
      co_await p.compute(sim::microseconds(100));  // let rank 0 push
      auto got = co_await s.steal(p);
      EXPECT_TRUE(got.has_value());
      if (got) stolen = *got;
    }
  });
  f.rt.run_all();
  EXPECT_EQ(stolen, (std::vector<int>{1, 2}));  // FIFO end = oldest
}

TEST(StealScheduler, OriginalOrderStartsWithPowerOfTwoNeighbours) {
  Fixture f(net::das_config(4, 4));
  StealScheduler<int> s(f.rt, {});
  // The highest-numbered process of cluster 0 is rank 3: its first
  // victims 4, 5, 7, 11 are mostly remote — the pathology of §4.6.
  bool checked = false;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.rank == 3) {
      (void)co_await s.steal(p);  // all empty; traffic pattern is the point
      checked = true;
    }
  });
  f.rt.run_all();
  EXPECT_TRUE(checked);
  EXPECT_GT(f.net.stats().inter_rpc_count(), 0u);
}

TEST(StealScheduler, ClusterFirstAvoidsWanWhenLocalWorkExists) {
  Fixture f(net::das_config(4, 4));
  StealScheduler<int>::Options opt;
  opt.order = StealOrder::kClusterFirst;
  StealScheduler<int> s(f.rt, opt);
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      s.push_local(p, 42);
      co_await p.compute(sim::milliseconds(1));
    } else if (p.rank == 3) {
      co_await p.compute(sim::microseconds(50));
      auto got = co_await s.steal(p);
      EXPECT_TRUE(got.has_value());
      if (got) {
        EXPECT_EQ((*got)[0], 42);
      }
    }
  });
  f.rt.run_all();
  EXPECT_EQ(f.net.stats().inter_rpc_count(), 0u);
}

TEST(StealScheduler, RememberEmptySkipsIdleVictims) {
  Fixture f(net::das_config(2, 2));
  StealScheduler<int>::Options opt;
  opt.remember_empty = true;
  StealScheduler<int> s(f.rt, opt);
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      co_await p.compute(sim::milliseconds(5));
      (void)co_await s.steal(p);
    } else {
      co_await s.announce_idle(p, true);
      co_await p.compute(sim::milliseconds(6));
    }
  });
  f.rt.run_all();
  // Rank 0's victim order on P=4 is {1, 2}; both are known idle.
  EXPECT_EQ(s.stats().skipped_idle, 2u);
  EXPECT_EQ(s.stats().attempts, 0u);
}

TEST(StealScheduler, IdleAnnouncementsDriveTermination) {
  Fixture f(net::das_config(2, 2));
  StealScheduler<int> s(f.rt, {});
  int finished = 0;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    co_await p.compute(p.rank * sim::microseconds(100));
    co_await s.announce_idle(p, true);
    co_await s.wait_all_idle(p);
    ++finished;
  });
  f.rt.run_all();
  EXPECT_EQ(finished, 4);
}

}  // namespace
}  // namespace alb::wide
