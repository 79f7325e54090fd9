// Figures 1-14: per-application speedup curves. `--app <name>` picks
// the figure; the program runs the original and optimized variants over
// the paper's sweep (1/2/4 clusters x 1..60 CPUs) and prints both curve
// families.

#include <iostream>

#include "bench_common.hpp"

namespace {

struct Figure {
  const char* key;       ///< --app value
  const char* app_name;  ///< apps::registry() name
  const char* label;
};

constexpr Figure kFigures[] = {
    {"water", "Water", "Figures 1-2: Water speedup (original vs optimized)"},
    {"tsp", "TSP", "Figures 3-4: TSP speedup (original vs optimized)"},
    {"asp", "ASP", "Figures 5-6: ASP speedup (original vs optimized)"},
    {"atpg", "ATPG", "Figures 7-8: ATPG speedup (original vs optimized)"},
    {"ra", "RA", "Figures 9-10: Retrograde Analysis speedup (original vs optimized)"},
    {"ida", "IDA*", "Figure 11: IDA* speedup (original vs optimized)"},
    {"acp", "ACP", "Figure 12: ACP speedup (original; optimized = async-broadcast extension)"},
    {"sor", "SOR", "Figures 13-14: SOR speedup (original vs optimized)"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  FigureOptions fo;
  fo.opts.define("app", "", "figure to run: water, tsp, asp, atpg, ra, ida, acp or sor");
  if (!fo.parse(argc, argv)) return 0;
  const Figure* fig = nullptr;
  for (const Figure& f : kFigures) {
    if (fo.opts.get("app") == f.key) fig = &f;
  }
  if (!fig) {
    std::cerr << "unknown --app '" << fo.opts.get("app")
              << "' (one of: water tsp asp atpg ra ida acp sor)\n";
    return 1;
  }
  const apps::AppEntry* entry = nullptr;
  for (const auto& e : apps::registry()) {
    if (e.name == fig->app_name) entry = &e;
  }
  // Both variants' sweeps go out as one campaign so the worker pool stays
  // saturated across the whole figure, not per curve family.
  std::vector<campaign::SimJob> jobs =
      sweep_jobs(entry->run, /*optimized=*/false, fo.quick, fo.seed);
  const std::size_t n_orig = jobs.size();
  for (campaign::SimJob& j : sweep_jobs(entry->run, /*optimized=*/true, fo.quick, fo.seed)) {
    jobs.push_back(std::move(j));
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {fo.jobs});
  SpeedupCurves orig = assemble_speedup_curves(
      fo.quick, {results.begin(), results.begin() + n_orig});
  SpeedupCurves opt = assemble_speedup_curves(
      fo.quick, {results.begin() + n_orig, results.end()});
  print_figure(std::cout, fig->label, orig, opt, fo.csv);
  std::cout << "T(1) = " << sim::to_seconds(orig.t1) << " simulated seconds\n";
  return 0;
}
