// Demonstrates the wide-area optimization library (src/core) on a small
// custom workload, showing the before/after effect of each primitive the
// paper's applications use:
//
//   1. flat_reduce vs cluster_reduce        (ATPG pattern, §4.4)
//   2. direct fetches vs ClusterCache       (Water pattern, §4.1)
//   3. per-item sends vs gateway combining  (RA pattern, §4.5)
//
// Each experiment reports simulated completion time and intercluster
// traffic so the trade-offs are visible at a glance.
//
//   ./wide_area_optimization

#include <iostream>
#include <memory>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/cluster_reduce.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "util/table.hpp"

using namespace alb;

namespace {

struct Outcome {
  double ms;
  long long inter_msgs;
  long long inter_kb;
};

Outcome report(net::Network& net, sim::SimTime done) {
  const auto& s = net.stats();
  long long msgs = 0;
  long long bytes = 0;
  for (auto k : {net::MsgKind::Rpc, net::MsgKind::RpcReply, net::MsgKind::Data,
                 net::MsgKind::Bcast, net::MsgKind::Control}) {
    msgs += static_cast<long long>(s.kind(k).inter_msgs);
    bytes += static_cast<long long>(s.kind(k).inter_bytes);
  }
  return {sim::to_milliseconds(done), msgs, bytes / 1024};
}

/// 1. Every process contributes a partial sum to rank 0.
Outcome reduction(bool optimized) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 8));
  orca::Runtime rt(net);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    long long local = p.rank * p.rank;
    auto add = [](long long&& a, const long long& b) { return a + b; };
    if (optimized) {
      (void)co_await wide::cluster_reduce<long long>(rt, p, 100, local, 8, add);
    } else {
      (void)co_await wide::flat_reduce<long long>(rt, p, 100, local, 8, add);
    }
  });
  rt.run_all();
  return report(net, rt.last_finish());
}

/// 2. Every process needs the same 8 KB block owned by rank 0.
Outcome fetch(bool optimized) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 8));
  orca::Runtime rt(net);
  wide::ClusterCache<std::vector<double>> cache(rt, 8192, optimized);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    cache.publish(p, 0, std::make_shared<const std::vector<double>>(1024, 1.0));
    if (p.rank != 0) {
      (void)co_await cache.fetch(p, 0, 0);
    }
  });
  rt.run_all();
  return report(net, rt.last_finish());
}

/// 3. Every process streams 200 small items to random peers, one
/// send_data per item; the cluster-aware variant has the gateways
/// combine them on the WAN. Time is the last item's delivery.
Outcome scatter(bool optimized) {
  net::TopologyConfig cfg = net::das_config(4, 8);
  if (optimized) cfg.wan_transport.combine_bytes = orca::coll::kDefaultCombineBytes;
  sim::Engine eng;
  net::Network net(eng, cfg);
  orca::Runtime rt(net);
  constexpr int kTag = 9000;
  sim::SimTime last = 0;
  for (net::NodeId n = 0; n < net.topology().num_compute(); ++n) {
    net.endpoint(n).set_handler(kTag, [&](net::Message) { last = eng.now(); });
  }
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      rt.send_data(p, static_cast<int>(p.rng.uniform_int(0, p.nprocs - 1)), kTag, 16);
    }
    co_return;
  });
  rt.run_all();
  return report(net, last);
}

}  // namespace

int main() {
  util::Table t({"pattern", "variant", "time ms", "inter msgs", "inter KB"});
  struct Case {
    const char* name;
    Outcome (*fn)(bool);
  };
  for (const Case& c : {Case{"all-to-one reduction", reduction},
                        Case{"shared block fetch", fetch},
                        Case{"irregular scatter", scatter}}) {
    Outcome before = c.fn(false);
    Outcome after = c.fn(true);
    t.row().add(c.name).add("direct").add(before.ms, 2).add(before.inter_msgs).add(
        before.inter_kb);
    t.row().add(c.name).add("cluster-aware").add(after.ms, 2).add(after.inter_msgs).add(
        after.inter_kb);
  }
  std::cout << "Wide-area optimization primitives on 4 clusters x 8 nodes\n\n";
  t.print(std::cout);
  std::cout << "\nEach cluster-aware variant funnels intercluster work through one\n"
               "point per cluster (a process or the gateway), the common thread of\n"
               "the paper's Table 3.\n";
  return 0;
}
