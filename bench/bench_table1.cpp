// Table 1: application-to-application performance of the low-level Orca
// primitives — null-operation latency and 100 KB-message bandwidth for
// RPC (non-replicated objects) and totally-ordered broadcast (replicated
// objects), on the LAN (Myrinet) and across the WAN (ATM).
//
// Paper values:            latency            bandwidth
//   RPC        Myrinet 40 us / ATM 2.7 ms   208 / 4.53 Mbit/s
//   Broadcast  Myrinet 65 us / ATM 3.0 ms   248 / 4.53 Mbit/s

#include <iostream>

#include "bench_common.hpp"
#include "orca/shared_object.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct Slot {
  std::vector<char> data;
  int version = 0;
};

struct Measure {
  double latency_us = 0;
  double bandwidth_mbit = 0;
  std::string hops;  // WAN broadcast latency: the ordering path it assumes
};

/// Latency: null operation roundtrip. Bandwidth: a train of 100 KB
/// messages, measured at the receiver (as the paper does).
Measure rpc_micro(bool cross_wan) {
  Measure m;
  {  // latency
    sim::Engine eng;
    net::Network net(eng, net::das_config(2, 4));
    orca::Runtime rt(net);
    auto obj = orca::create_remote<Slot>(rt, 0, {});
    const int caller = cross_wan ? 4 : 1;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank != caller) co_return;
      const int reps = 8;
      sim::SimTime t0 = p.now();
      for (int i = 0; i < reps; ++i) {
        co_await obj.invoke_void(p, 0, 0, [](Slot& s) { ++s.version; });
      }
      elapsed = (p.now() - t0) / reps;
    });
    rt.run_all();
    m.latency_us = sim::to_microseconds(elapsed);
  }
  {  // bandwidth
    sim::Engine eng;
    net::Network net(eng, net::das_config(2, 4));
    orca::Runtime rt(net);
    auto obj = orca::create_remote<Slot>(rt, 0, {});
    const int caller = cross_wan ? 4 : 1;
    const std::size_t bytes = 100 * 1024;
    const int reps = 20;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank != caller) co_return;
      sim::SimTime t0 = p.now();
      for (int i = 0; i < reps; ++i) {
        co_await obj.invoke_void(p, bytes, 8, [](Slot& s) { ++s.version; });
      }
      elapsed = p.now() - t0;
    });
    rt.run_all();
    m.bandwidth_mbit =
        static_cast<double>(bytes) * reps * 8.0 / sim::to_seconds(elapsed) / 1e6;
  }
  return m;
}

Measure bcast_micro(bool cross_wan) {
  Measure m;
  {  // latency: time until the update is applied at a remote replica
    sim::Engine eng;
    // 60-replica set, matching the paper's benchmark setup.
    const net::TopologyConfig cfg = cross_wan ? net::das_config(4, 15) : net::das_config(1, 60);
    net::Network net(eng, cfg);
    orca::Runtime rt(net);
    auto obj = orca::create_replicated<Slot>(rt, {});
    // WAN case: the writer's cluster does not hold the sequencing token,
    // so the write pays WAN ordering before the (local) delivery — the
    // composition behind the paper's 3.0 ms figure.
    const int writer = cross_wan ? 18 : 3;
    const int observer = cross_wan ? 20 : 30;
    sim::SimTime delivered = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank == writer) {
        co_await obj.write(p, 0, [](Slot& s) { ++s.version; });
      } else if (p.rank == observer) {
        sim::SimTime t0 = p.now();
        co_await obj.wait_until(p, [](const Slot& s) { return s.version > 0; });
        delivered = p.now() - t0;
      }
    });
    rt.run_all();
    m.latency_us = sim::to_microseconds(delivered);
    if (cross_wan) {
      // The rotating token starts parked at cluster 0. The writer's kick
      // travels the ring to it and the token comes back: one revolution,
      // a one-way WAN hop per cluster. The token takes one more step
      // after the grant, off the latency path.
      const int clusters = net.topology().clusters();
      const int origin = net.topology().cluster_of(writer);
      const int kick_hops = (clusters - origin) % clusters;
      const int token_hops = origin;
      const orca::Sequencer::ProtocolCounts sc = rt.sequencer().protocol_counts();
      m.hops = "WAN broadcast ordering: writer in cluster " + std::to_string(origin) +
               ", token parked at cluster 0: " + std::to_string(kick_hops) + " kick + " +
               std::to_string(token_hops) + " token = " + std::to_string(kick_hops + token_hops) +
               " one-way WAN hops of " +
               util::format_fixed(sim::to_microseconds(cfg.wan.latency) / 1000.0, 2) +
               " ms (measured: " + std::to_string(sc.kicks) + " kick hops, " +
               std::to_string(sc.token_passes) + " token hops incl. the post-grant step)";
    }
  }
  {  // bandwidth: 100 KB replicated updates, observed at a remote replica
    sim::Engine eng;
    net::Network net(eng, cross_wan ? net::das_config(4, 15) : net::das_config(1, 60));
    orca::Runtime rt(net);
    auto obj = orca::create_replicated<Slot>(rt, {});
    const std::size_t bytes = 100 * 1024;
    const int reps = 10;
    const int observer = cross_wan ? 59 : 30;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank == 3) {
        for (int i = 0; i < reps; ++i) {
          co_await obj.write(p, bytes, [](Slot& s) { ++s.version; });
        }
      } else if (p.rank == observer) {
        sim::SimTime t0 = p.now();
        co_await obj.wait_until(p, [reps](const Slot& s) { return s.version >= reps; });
        elapsed = p.now() - t0;
      }
    });
    rt.run_all();
    m.bandwidth_mbit =
        static_cast<double>(bytes) * reps * 8.0 / sim::to_seconds(elapsed) / 1e6;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;

  Measure rpc_lan = rpc_micro(false);
  Measure rpc_wan = rpc_micro(true);
  Measure bc_lan = bcast_micro(false);
  Measure bc_wan = bcast_micro(true);

  util::Table t({"benchmark", "LAN latency", "WAN latency", "LAN bandwidth",
                 "WAN bandwidth", "paper LAN/WAN lat", "paper LAN/WAN bw"});
  t.row()
      .add("RPC (non-replicated)")
      .add(util::format_fixed(rpc_lan.latency_us, 0) + " us")
      .add(util::format_fixed(rpc_wan.latency_us / 1000.0, 2) + " ms")
      .add(util::format_fixed(rpc_lan.bandwidth_mbit, 0) + " Mbit/s")
      .add(util::format_fixed(rpc_wan.bandwidth_mbit, 2) + " Mbit/s")
      .add("40 us / 2.7 ms")
      .add("208 / 4.53 Mbit/s");
  t.row()
      .add("Broadcast (replicated)")
      .add(util::format_fixed(bc_lan.latency_us, 0) + " us")
      .add(util::format_fixed(bc_wan.latency_us / 1000.0, 2) + " ms")
      .add(util::format_fixed(bc_lan.bandwidth_mbit, 0) + " Mbit/s")
      .add(util::format_fixed(bc_wan.bandwidth_mbit, 2) + " Mbit/s")
      .add("65 us / 3.0 ms")
      .add("248 / 4.53 Mbit/s");

  std::cout << "=== Table 1: low-level Orca primitive performance ===\n";
  if (fo.csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << bc_wan.hops << "\n";
  return 0;
}
