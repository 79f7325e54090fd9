// Build-time probe behind campaign::semantic_fingerprint(): runs a tiny
// canonical simulation whose writers contend on the rotating sequencer
// and writes its trace_hash, as a C++ literal, to the file named by its
// only argument. The build reruns it whenever the sim, net or orca
// libraries change, so a change that moves this schedule moves every
// result-cache key without any process paying for the probe.
//
//   alb-fingerprint-probe OUT.inc

#include <cstdint>
#include <cstdio>

#include "net/presets.hpp"
#include "orca/shared_object.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.inc\n", argv[0]);
    return 2;
  }
  using namespace alb;
  // One writer in each of two clusters, each ordering three
  // back-to-back writes through the default multicluster (rotating)
  // sequencer.
  struct Counter {
    int value = 0;
  };
  sim::Engine eng;
  net::Network net(eng, net::das_config(2, 1));
  orca::Runtime rt(net);
  auto obj = orca::create_replicated<Counter>(rt, {});
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await obj.write(p, 8, [](Counter& c) { ++c.value; });
  });
  rt.run_all();

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror(argv[1]);
    return 1;
  }
  const unsigned long long hash = eng.trace_hash();
  const bool ok = std::fprintf(out, "%lluull\n", hash) > 0;
  return std::fclose(out) == 0 && ok ? 0 : 1;
}
