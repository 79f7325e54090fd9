// Stress and protocol-detail tests for the Orca runtime: concurrent
// write storms under every sequencer, blocking RPC services, reorder
// buffers under skewed delays, and endpoint handler/mailbox semantics.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"

namespace alb::orca {
namespace {

struct Fixture {
  sim::Engine eng;
  net::Network net;
  Runtime rt;
  Fixture(net::TopologyConfig cfg, Runtime::Config rc = {}) : net(eng, cfg), rt(net, rc) {}
};

struct Journal {
  std::vector<int> entries;
};

// Names the two fields the stress runs care about (Runtime::Config has
// grown tail fields past them).
Runtime::Config seq_cfg(SequencerKind kind, int migrate_threshold) {
  Runtime::Config rc;
  rc.sequencer = kind;
  rc.migrate_threshold = migrate_threshold;
  return rc;
}

TEST(BroadcastStress, InterleavedWriteStormStaysTotallyOrdered) {
  // Every process issues bursts of writes with pseudo-random pauses;
  // all replicas must see the identical sequence, under heavy load.
  Fixture f(net::das_config(4, 4), seq_cfg(SequencerKind::Rotating, 2));
  auto obj = create_replicated<Journal>(f.rt, Journal{});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    for (int burst = 0; burst < 3; ++burst) {
      co_await p.compute(p.rng.uniform_int(0, 5000));
      for (int i = 0; i < 6; ++i) {
        int stamp = p.rank * 100 + burst * 10 + i;
        co_await obj.write(p, 24, [stamp](Journal& j) { j.entries.push_back(stamp); });
      }
    }
  });
  f.rt.run_all();
  const auto& ref = obj.local(f.rt.proc(0)).entries;
  ASSERT_EQ(ref.size(), 16u * 18u);
  for (int r = 1; r < 16; ++r) {
    ASSERT_EQ(obj.local(f.rt.proc(r)).entries, ref) << "rank " << r;
  }
}

TEST(BroadcastStress, MixedOrderedAndUnorderedWritesConverge) {
  // Unordered (async) writes only commute with themselves; run a storm
  // of commutative increments alongside ordered writes and check the
  // commutative part converged identically.
  Fixture f(net::das_config(2, 3));
  struct Counters {
    std::vector<long long> per_rank;
  };
  auto obj = create_replicated<Counters>(
      f.rt, Counters{std::vector<long long>(6, 0)});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      const int rank = p.rank;
      if (i % 3 == 0) {
        co_await obj.write(p, 16, [rank](Counters& c) {
          c.per_rank[static_cast<std::size_t>(rank)] += 1;
        });
      } else {
        obj.write_async(p, 16, [rank](Counters& c) {
          c.per_rank[static_cast<std::size_t>(rank)] += 1;
        });
      }
      co_await p.compute(100);
    }
    // Let the async tail drain.
    co_await p.compute(sim::milliseconds(50));
  });
  f.rt.run_all();
  for (int r = 0; r < 6; ++r) {
    const auto& c = obj.local(f.rt.proc(r));
    for (int w = 0; w < 6; ++w) {
      EXPECT_EQ(c.per_rank[static_cast<std::size_t>(w)], 20) << r << "/" << w;
    }
  }
}

TEST(RpcBlocking, ServerMayAwaitBeforeReplying) {
  Fixture f(net::das_config(2, 2));
  sim::Future<std::string> gate(f.eng);
  std::string got;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 3) {
      std::function<sim::Task<std::shared_ptr<const void>>()> op =
          [&gate]() -> sim::Task<std::shared_ptr<const void>> {
        std::string v = co_await gate;  // blocks inside the handler
        co_return net::make_payload<std::string>(v + "!");
      };
      auto payload = co_await f.rt.rpc_blocking(p.node, 0, 32, 64, std::move(op));
      got = *static_cast<const std::string*>(payload.get());
    } else if (p.rank == 1) {
      co_await p.compute(sim::milliseconds(20));
      gate.set_value("unblocked");
    }
  });
  f.rt.run_all();
  EXPECT_EQ(got, "unblocked!");
}

TEST(RpcBlocking, ManyConcurrentBlockingCallsAllComplete) {
  Fixture f(net::das_config(2, 4));
  int served = 0;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) co_return;
    for (int i = 0; i < 5; ++i) {
      sim::Engine* eng = &f.eng;
      std::function<sim::Task<std::shared_ptr<const void>>()> op =
          [eng, &served]() -> sim::Task<std::shared_ptr<const void>> {
        co_await eng->delay(sim::microseconds(700));
        ++served;
        co_return nullptr;
      };
      (void)co_await f.rt.rpc_blocking(p.node, 0, 16, 16, std::move(op));
    }
  });
  f.rt.run_all();
  EXPECT_EQ(served, 7 * 5);
}

TEST(Endpoint, HandlerTakesPrecedenceOverMailbox) {
  Fixture f(net::das_config(1, 2));
  int handled = 0;
  f.net.endpoint(1).set_handler(42, [&](net::Message) { ++handled; });
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      f.rt.send_data(p, 1, 42, 8);
      f.rt.send_data(p, 1, 43, 8);  // no handler: queued
    } else {
      net::Message m = co_await f.rt.recv_data(p, 43);
      EXPECT_EQ(m.tag, 43);
    }
  });
  f.rt.run_all();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(f.net.endpoint(1).pending(42), 0u);
}

TEST(Endpoint, ClearHandlerRestoresQueueing) {
  Fixture f(net::das_config(1, 2));
  f.net.endpoint(1).set_handler(7, [](net::Message) { FAIL() << "stale handler"; });
  f.net.endpoint(1).clear_handler(7);
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      f.rt.send_data(p, 1, 7, 8);
    } else {
      (void)co_await f.rt.recv_data(p, 7);
    }
  });
  f.rt.run_all();
}

TEST(Sequencer, RotatingServesManyClustersFairly) {
  // With all clusters requesting constantly, every cluster's writes
  // complete (no starvation) and the order interleaves clusters.
  Fixture f(net::das_config(4, 2), seq_cfg(SequencerKind::Rotating, 2));
  auto obj = create_replicated<Journal>(f.rt, Journal{});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (!p.is_cluster_leader()) co_return;
    for (int i = 0; i < 8; ++i) {
      int stamp = p.cluster() * 10 + i;
      co_await obj.write(p, 16, [stamp](Journal& j) { j.entries.push_back(stamp); });
    }
  });
  f.rt.run_all();
  const auto& ref = obj.local(f.rt.proc(0)).entries;
  ASSERT_EQ(ref.size(), 32u);
  // All four clusters appear in the first half of the sequence: the
  // rotation cannot serve one cluster to completion first.
  std::map<int, int> first_half;
  for (std::size_t i = 0; i < 16; ++i) ++first_half[ref[i] / 10];
  EXPECT_EQ(first_half.size(), 4u);
}

TEST(Barrier, ManyGenerationsUnderLoad) {
  Fixture f(net::das_config(4, 3));
  int laps = 0;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await p.compute(p.rng.uniform_int(0, 2000));
      co_await f.rt.barrier(p);
    }
    if (p.rank == 0) laps = 20;
  });
  f.rt.run_all();
  EXPECT_EQ(laps, 20);
}

}  // namespace
}  // namespace alb::orca
