#include "requests.hpp"

#include <set>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One class of request lines: `count` lines of `app` on `scenario`.
struct Class {
  const char* scenario;
  const char* app;
  int clusters;
  int per;
  int count;
  int runs;       ///< runs the scenario expands to
  bool seeded;    ///< false: the scenario's own [grid] fixes seed and opt
};

// 132 single-run lines on four scenarios, including hetero3's per-pair
// circuits; six 5-run lines of sensitivity's [run] list; six 6-point
// lines of sweep-demo's [grid]. 198 expanded requests in all.
constexpr Class kMix[] = {
    {"das", "SOR", 2, 2, 40, 1, true},
    {"das", "Water", 2, 2, 16, 1, true},
    {"das", "RA", 2, 2, 12, 1, true},
    {"internet", "SOR", 2, 3, 12, 1, true},
    {"internet", "Water", 2, 2, 8, 1, true},
    {"slow-wan", "SOR", 3, 2, 12, 1, true},
    {"slow-wan", "RA", 3, 2, 8, 1, true},
    {"hetero3", "SOR", 0, 2, 16, 1, true},
    {"hetero3", "RA", 0, 1, 8, 1, true},
    {"sensitivity", "SOR", 2, 2, 6, 5, true},
    {"sweep-demo", "SOR", 2, 0, 3, 6, false},
    {"sweep-demo", "Water", 2, 0, 3, 6, false},
};

// Warm replays of the list: ~20k cache hits, so a warm process runs for
// most of a second rather than the few ms of a single replay.
constexpr int kReplay = 100;

}  // namespace

std::string ServeRequest::line() const {
  std::string s = scenario + " app=" + app;
  if (opt >= 0) s += " opt=" + std::to_string(opt);
  if (clusters > 0) s += " clusters=" + std::to_string(clusters);
  if (per > 0) s += " per=" + std::to_string(per);
  if (seed > 0) s += " seed=" + std::to_string(seed);
  return s;
}

std::size_t ServePlan::expanded() const {
  std::size_t n = 0;
  for (const ServeRequest& r : requests) n += static_cast<std::size_t>(r.runs);
  return n;
}

std::vector<std::string> ServePlan::scenarios() const {
  std::set<std::string> names;
  for (const ServeRequest& r : requests) names.insert(r.scenario);
  return {names.begin(), names.end()};
}

ServePlan generate_requests(std::uint64_t seed) {
  std::uint64_t state = seed;
  std::set<std::uint64_t> used_seeds;
  ServePlan plan;
  plan.replay = kReplay;
  for (const Class& c : kMix) {
    for (int i = 0; i < c.count; ++i) {
      ServeRequest r;
      r.scenario = c.scenario;
      r.app = c.app;
      r.clusters = c.clusters;
      r.runs = c.runs;
      if (c.seeded) {
        r.per = c.per;
        r.opt = i % 2;
        // Distinct app seeds make every line a distinct request; they
        // stay clear of sweep-demo's grid seeds 42-44.
        do {
          r.seed = 100 + splitmix64(state) % 1000000;
        } while (!used_seeds.insert(r.seed).second);
      } else {
        r.per = 1 + i;
      }
      plan.requests.push_back(r);
    }
  }
  // Fisher-Yates with the seeded stream: the order is part of the input.
  for (std::size_t i = plan.requests.size(); i > 1; --i) {
    std::swap(plan.requests[i - 1], plan.requests[splitmix64(state) % i]);
  }
  return plan;
}

}  // namespace perfbench
