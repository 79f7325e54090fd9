#pragma once
// The simulation face of the campaign engine: (AppConfig → AppResult)
// jobs. Every sweep-style bench builds its run list as SimJobs and hands
// it to run_sim_jobs(); with Options{1} this is exactly the old
// sequential for-loop, with Options{N} the same list is sharded over N
// workers and the results come back in the same order.

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "campaign/campaign.hpp"

namespace alb::campaign {

using SimRunner = std::function<apps::AppResult(const apps::AppConfig&)>;

/// One schedulable simulation: a runner plus the config to run it at.
struct SimJob {
  SimRunner run;
  apps::AppConfig cfg;
  /// Optional host-telemetry identity: the app's name and the job's
  /// result-cache key. Only the `campaign.job` span label reads them.
  std::string app = {};
  std::string key = {};
};

/// The `campaign.job` span label of `j`: "<app> <orig|opt> <key>",
/// leaving out whichever of app and key is empty.
inline std::string job_label(const SimJob& j) {
  std::string out = j.app;
  if (!out.empty()) out += ' ';
  out += j.cfg.optimized ? "opt" : "orig";
  if (!j.key.empty()) out += ' ' + j.key;
  return out;
}

/// Executes the whole job list on the campaign engine; results are in
/// submission order (jobs[i] → result[i]) regardless of worker count.
/// Traced jobs (cfg.trace.enabled) return their full event stream via
/// AppResult::trace, so per-point post-processing — e.g. the causal
/// critical-path breakdowns bench_causal writes into its results JSON —
/// runs after the pool joins and inherits --jobs byte-identity for free.
inline std::vector<apps::AppResult> run_sim_jobs(const std::vector<SimJob>& jobs,
                                                 const Options& opts = {},
                                                 RunStats* stats = nullptr) {
  // A partitioned job (cfg.partitions > 1, cfg.threads == 0 meaning
  // "auto") would spawn one epoch-loop thread per partition; with a
  // pool of campaign workers running such jobs side by side that
  // oversubscribes the machine. Hand each job an explicit per-job
  // thread budget of hardware_concurrency / workers (at least 1).
  // Thread counts never change any output byte, only wall-clock speed,
  // so this keeps --jobs byte-identity intact.
  const int workers = resolve_jobs(opts.jobs);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int budget = std::max(1, hw / std::max(1, workers));
  std::vector<std::function<apps::AppResult()>> tasks;
  tasks.reserve(jobs.size());
  for (const SimJob& j : jobs) {
    tasks.push_back([&j, budget] {
      if (j.cfg.partitions > 1 && j.cfg.threads == 0) {
        apps::AppConfig cfg = j.cfg;
        cfg.threads = std::min(budget, cfg.partitions);
        return j.run(cfg);
      }
      return j.run(j.cfg);
    });
  }
  return run(std::move(tasks), opts, stats,
             [&jobs](std::size_t i) { return job_label(jobs[i]); });
}

}  // namespace alb::campaign
