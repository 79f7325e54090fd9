// Adaptive-runtime bench: the three-arm orig / auto / hand-opt
// comparison pinning the adaptive engine's success criterion on the
// full application suite at the paper's 4-cluster x 16 geometry.
//
//   * orig — the unmodified original variants,
//   * auto — the same originals under --adapt: the runtime detects the
//     WAN-bound access patterns at epoch boundaries and applies the §4
//     optimizations itself (docs/ADAPTIVE.md),
//   * opt  — the hand-optimized variants, the paper's upper bound.
//
// Per app it reports the simulated run time of each arm, the auto/orig
// and auto/opt ratios, and which policies the engine tripped; then it
// verdicts the contract: every auto checksum equals its orig checksum
// (adaptivity never changes the computed answer), and on the paper's
// flagship adaptivity targets — ASP (sequencer migration), TSP (queue
// split), RA (gateway combining) — auto is strictly faster than orig and
// within 25% of hand-optimized.
//
// Everything printed is simulated and deterministic: any --jobs value
// emits a byte-identical table (tools/check.sh diffs --jobs 1 vs 4).
// Wall-clock throughput goes only into the JSON, as events_per_sec per
// suite arm, for tools/bench_compare.py against
// results/BENCH_adaptive.baseline.json.
//
//   ./bench_adaptive [--quick] [--csv] [--jobs=N] [--seed=S] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct ArmRow {
  sim::SimTime elapsed = 0;
  std::uint64_t checksum = 0;
  // Adaptive decision counters (auto arm only; zero elsewhere).
  std::uint64_t seq_arms = 0;
  std::uint64_t queue_splits = 0;
  std::uint64_t combine_on = 0;
  std::uint64_t tree_on = 0;
};

ArmRow arm_row(const AppResult& r) {
  ArmRow a;
  a.elapsed = r.elapsed;
  a.checksum = r.checksum;
  a.seq_arms = static_cast<std::uint64_t>(r.stats.value("orca/adapt.seq.arms"));
  a.queue_splits = static_cast<std::uint64_t>(r.stats.value("orca/adapt.queue.splits"));
  a.combine_on = static_cast<std::uint64_t>(r.stats.value("orca/adapt.combine.enabled"));
  a.tree_on = static_cast<std::uint64_t>(r.stats.value("orca/adapt.tree.enabled"));
  return a;
}

std::string decisions(const ArmRow& a) {
  std::string s;
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += '+';
    s += name;
  };
  add(a.seq_arms > 0, "seq");
  add(a.queue_splits > 0, "split");
  add(a.combine_on > 0, "combine");
  add(a.tree_on > 0, "tree");
  return s.empty() ? "-" : s;
}

void write_json(const std::string& path, const std::vector<std::string>& names,
                const std::vector<ArmRow>& orig, const std::vector<ArmRow>& aut,
                const std::vector<ArmRow>& opt, double orig_evps, double auto_evps,
                double opt_evps, bool ok) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_adaptive\",\n"
     << "  \"contract_holds\": " << (ok ? "true" : "false") << ",\n  \"apps\": [\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << "    {\"app\": \"" << names[i] << "\""
       << ", \"orig_elapsed_ns\": " << orig[i].elapsed
       << ", \"auto_elapsed_ns\": " << aut[i].elapsed
       << ", \"opt_elapsed_ns\": " << opt[i].elapsed
       << ", \"decisions\": \"" << decisions(aut[i]) << "\"}"
       << (i + 1 < names.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"benches\": [\n"
     << "    {\"name\": \"suite_orig\", \"events_per_sec\": " << orig_evps << "},\n"
     << "    {\"name\": \"suite_auto\", \"events_per_sec\": " << auto_evps << "},\n"
     << "    {\"name\": \"suite_opt\", \"events_per_sec\": " << opt_evps << "}\n"
     << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define_flag("csv", "emit CSV instead of an aligned table");
  opts.define_flag("quick", "4x8 geometry instead of the full 4x16 (smoke: no perf floors)");
  opts.define("seed", "42", "workload seed");
  opts.define("json", "BENCH_adaptive.json", "output path for machine-readable results");
  define_jobs_option(opts);
  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_adaptive: " << e.what() << "\n";
    return 2;
  }
  const bool csv = opts.has_flag("csv");
  const bool quick = opts.has_flag("quick");
  const int per_cluster = quick ? 8 : 16;
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  const auto& apps = apps::registry();
  // The paper's flagship adaptivity targets: one app per headline §4
  // optimization. The full-scale verdict requires auto strictly faster
  // than orig and within 25% of hand-optimized on these.
  const std::vector<std::string> gated = {"ASP", "TSP", "RA"};
  constexpr double kOptSlack = 1.25;

  enum Arm { kOrig, kAuto, kOpt };
  auto run_arm = [&](Arm arm) {
    std::vector<campaign::SimJob> jobs;
    for (const auto& app : apps) {
      AppConfig c = make_config(4, per_cluster, /*optimized=*/arm == kOpt, seed);
      c.adapt = arm == kAuto;
      jobs.push_back({app.run, c});
    }
    return campaign::run_sim_jobs(jobs, {njobs});
  };
  using Clock = std::chrono::steady_clock;
  std::cout << "adaptive bench: " << 3 * apps.size() << " simulations (4x" << per_cluster
            << ", orig / auto / hand-opt)\n";
  const auto t0 = Clock::now();
  const std::vector<AppResult> r_orig = run_arm(kOrig);
  const auto t1 = Clock::now();
  const std::vector<AppResult> r_auto = run_arm(kAuto);
  const auto t2 = Clock::now();
  const std::vector<AppResult> r_opt = run_arm(kOpt);
  const auto t3 = Clock::now();

  auto evps = [](const std::vector<AppResult>& rs, Clock::duration wall) {
    double events = 0;
    for (const AppResult& r : rs) events += static_cast<double>(r.events);
    const double sec = std::chrono::duration<double>(wall).count();
    return sec > 0 ? events / sec : 0.0;
  };
  const double orig_evps = evps(r_orig, t1 - t0);
  const double auto_evps = evps(r_auto, t2 - t1);
  const double opt_evps = evps(r_opt, t3 - t2);

  std::vector<std::string> names;
  std::vector<ArmRow> orig, aut, opt;
  bool ok = true;
  std::vector<std::string> complaints;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    names.push_back(apps[i].name);
    orig.push_back(arm_row(r_orig[i]));
    aut.push_back(arm_row(r_auto[i]));
    opt.push_back(arm_row(r_opt[i]));
    // Adaptivity must never change the computed answer.
    if (r_auto[i].checksum != r_orig[i].checksum) {
      ok = false;
      complaints.push_back(apps[i].name + ": auto checksum diverged from orig");
    }
    // The perf floors are statements about the full 4x16 experiment
    // geometry; at the --quick smoke scale some patterns (RA's gateway
    // combining in particular) have too little WAN traffic to pay off,
    // so quick runs enforce only checksum equality and the
    // --jobs-independence of this table.
    if (quick) continue;
    if (std::find(gated.begin(), gated.end(), apps[i].name) == gated.end()) continue;
    if (aut.back().elapsed >= orig.back().elapsed) {
      ok = false;
      complaints.push_back(apps[i].name + ": auto not strictly faster than orig");
    }
    if (static_cast<double>(aut.back().elapsed) >
        kOptSlack * static_cast<double>(opt.back().elapsed)) {
      ok = false;
      complaints.push_back(apps[i].name + ": auto more than 25% behind hand-opt");
    }
  }

  util::Table t({"app", "orig s", "auto s", "opt s", "orig/auto", "auto/opt", "decisions"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto ratio = [](sim::SimTime a, sim::SimTime b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    t.row()
        .add(names[i])
        .add(sim::to_seconds(orig[i].elapsed), 4)
        .add(sim::to_seconds(aut[i].elapsed), 4)
        .add(sim::to_seconds(opt[i].elapsed), 4)
        .add(ratio(orig[i].elapsed, aut[i].elapsed), 3)
        .add(ratio(aut[i].elapsed, opt[i].elapsed), 3)
        .add(decisions(aut[i]));
  }
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);

  for (const std::string& c : complaints) std::cout << "VIOLATION: " << c << "\n";
  if (quick) {
    std::cout << (ok ? "quick smoke: auto checksums agree (perf floors gate at 4x16)\n"
                     : "ADAPTIVE CONTRACT VIOLATED\n");
  } else {
    std::cout << (ok ? "adaptive contract holds: auto beats orig and is within 25% of "
                       "hand-opt on ASP, TSP and RA\n"
                     : "ADAPTIVE CONTRACT VIOLATED\n");
  }
  write_json(opts.get("json"), names, orig, aut, opt, orig_evps, auto_evps, opt_evps, ok);
  std::cout << "wrote " << opts.get("json") << "\n";
  return ok ? 0 : 1;
}
