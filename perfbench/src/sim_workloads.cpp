// The three in-process workloads: fixed job sets of registry runners on
// configs built from the shipped scenarios/das.scn.
//
//   kernels      Water, TSP, ASP, ATPG, SOR (orig + opt) at 4x15: the app
//                kernels do most of the host work.
//   messaging    IDA*, RA, ACP (orig + opt) at 4x15 plus ACP orig at 2x2:
//                the sim/net/orca stack does most of the host work.
//   partitioned  ASP, RA, ACP (orig + opt) at 4x16 with partitions=4: the
//                only workload on the conservative-lookahead epoch loop.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/telemetry.hpp"
#include "host_speed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using alb::apps::AppConfig;
using alb::apps::AppResult;

struct Job {
  std::string app;       ///< registry name
  std::string variant;   ///< "orig" or "opt"
  std::string topo;      ///< "CxP"
  std::string metric;    ///< per-layer name of its run time
  const alb::apps::AppEntry* entry = nullptr;
  AppConfig cfg;
};

/// One simulation's result and its wall time.
struct Outcome {
  AppResult result;
  double wall_s = 0;

  bool ok() const { return result.status == AppResult::RunStatus::Ok; }
};

/// One pass over the job set, with the host-speed slices run before
/// each job.
struct Pass {
  std::vector<Outcome> runs;
  std::vector<double> slices;

  double wall() const {
    double w = 0;
    for (const Outcome& o : runs) w += o.wall_s;
    return w;
  }
  double speed() const { return HostSpeed::factor(slices); }
};

// The search and propagation work of TSP, IDA* and ACP depends on the
// problem instance: at 4x15 orig, eight seeds gave TSP 0.33-4.4 s and
// IDA* 0.04-2.7 s, and five seeds gave ACP at 2x2 7.24M-8.09M events. A
// seed-driven instance would measure the instance rather than the code,
// so these three keep the registry's calibrated instance (seed 42).
// Every other app, whose event count per run is fixed by its params,
// receives the benchmark seed.
std::uint64_t app_seed(const std::string& app, std::uint64_t seed) {
  return (app == "TSP" || app == "IDA*" || app == "ACP") ? 42 : seed;
}

std::string metric_name(const std::string& app) { return app == "IDA*" ? "IDA" : app; }

const alb::apps::AppEntry* find_app(const std::string& name) {
  for (const auto& e : alb::apps::registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<Job> build_jobs(const Args& a, SpanLog& spans) {
  alb::scenario::Scenario das;
  {
    Scope s(spans, "scenario.load", {{"scenario", "das"}});
    das = alb::scenario::load(a.root + "/scenarios/das.scn");
  }
  std::vector<std::string> apps;
  int clusters = das.base.clusters;
  int per = das.base.procs_per_cluster;
  int partitions = 1;
  if (a.workload == "kernels") {
    apps = {"Water", "TSP", "ASP", "ATPG", "SOR"};
  } else if (a.workload == "messaging") {
    apps = {"IDA*", "RA", "ACP"};
  } else {
    apps = {"ASP", "RA", "ACP"};
    per = 16;
    partitions = 4;
  }
  std::vector<Job> jobs;
  auto add = [&](const std::string& app, bool opt, int c, int p, const std::string& suffix) {
    Job j;
    j.app = app;
    j.variant = opt ? "opt" : "orig";
    j.topo = std::to_string(c) + "x" + std::to_string(p);
    j.metric = "job." + metric_name(app) + "." + j.variant + suffix + ".run_s";
    j.entry = find_app(app);
    if (j.entry == nullptr) throw std::runtime_error("app not in registry: " + app);
    j.cfg = das.base;
    j.cfg.clusters = c;
    j.cfg.procs_per_cluster = p;
    j.cfg.optimized = opt;
    j.cfg.seed = app_seed(app, a.seed);
    j.cfg.partitions = partitions;
    j.cfg.threads = partitions > 1 ? std::min(partitions, a.threads) : 0;
    jobs.push_back(std::move(j));
  };
  for (const std::string& app : apps) {
    add(app, false, clusters, per, "");
    add(app, true, clusters, per, "");
  }
  // 8.0M events on a 2x2 slice: the densest event stream in the suite.
  if (a.workload == "messaging") add("ACP", false, 2, 2, ".2x2");
  return jobs;
}

Outcome run_job(const Job& j, const AppConfig& cfg, SpanLog& spans) {
  Scope s(spans, "runner",
          {{"app", j.app},
           {"variant", j.variant},
           {"topology", std::to_string(cfg.clusters) + "x" + std::to_string(cfg.procs_per_cluster)},
           {"partitions", std::to_string(cfg.partitions)}});
  Outcome o;
  const double t0 = now_s();
  o.result = j.entry->run(cfg);
  o.wall_s = now_s() - t0;
  o.result.trace.reset();
  return o;
}

/// One pass; `sequential` runs every job at partitions=1, `record`
/// turns the flight recorder on.
Pass run_pass(const std::vector<Job>& jobs, Record& rec, const char* name,
              bool sequential = false, bool record = false) {
  Scope s(rec.spans, name);
  Pass pass;
  for (const Job& j : jobs) {
    AppConfig cfg = j.cfg;
    if (sequential) {
      cfg.partitions = 1;
      cfg.threads = 0;
    }
    cfg.trace.enabled = record;
    {
      // A partitioned job runs its epoch loop on j.cfg.threads threads,
      // so its slices run that wide, also in the partitions=1 pass that
      // sim.partition_speedup compares against.
      Scope c(rec.spans, "host_speed");
      pass.slices.push_back(rec.speed.slice(std::max(1, j.cfg.threads)));
    }
    pass.runs.push_back(run_job(j, cfg, rec.spans));
  }
  return pass;
}

std::string describe(const Job& j) {
  return j.app + "." + j.variant + "@" + j.topo + "/p" + std::to_string(j.cfg.partitions);
}

/// Whether two runs agree on every simulated statistic the fingerprint
/// carries.
bool same_sim(const Outcome& x, const Outcome& y) {
  const AppResult& a = x.result;
  const AppResult& b = y.result;
  return a.checksum == b.checksum && a.trace_hash == b.trace_hash && a.events == b.events &&
         a.elapsed == b.elapsed;
}

/// Status, orig-vs-opt and repeat checks on one pass.
void check_pass(const std::vector<Job>& jobs, const Pass& pass, const Pass* first,
                Checks& checks) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    checks.expect(pass.runs[i].ok(),
                  "pass: " + describe(jobs[i]) + " status " + pass.runs[i].result.error);
    if (first != nullptr) {
      checks.expect(same_sim(pass.runs[i], first->runs[i]),
                    "pass: " + describe(jobs[i]) + " differs from pass 1");
    }
  }
  // Chaotic relaxation legitimately changes SOR's answer.
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    const Job& x = jobs[i];
    const Job& y = jobs[i + 1];
    if (x.app == y.app && x.topo == y.topo && x.variant == "orig" && y.variant == "opt" &&
        x.app != "SOR") {
      checks.expect(pass.runs[i].result.checksum == pass.runs[i + 1].result.checksum,
                    "pass: " + x.app + "@" + x.topo + " orig/opt checksums differ");
    }
  }
}

/// Sequential reference kernels: the traced run times them
/// (apps.kernel_s) and checks the simulations' checksums against them.
bool has_reference(const std::string& app) {
  return app == "TSP" || app == "ATPG" || app == "SOR" || app == "IDA*" || app == "RA";
}

std::uint64_t reference_checksum(const std::string& app, std::uint64_t seed) {
  namespace A = alb::apps;
  if (app == "TSP") return A::tsp_checksum(A::tsp_reference(A::TspParams::bench_default(), seed));
  if (app == "ATPG") {
    return A::atpg_checksum(A::atpg_reference(A::AtpgParams::bench_default(), seed));
  }
  if (app == "SOR") return A::sor_checksum(A::sor_reference(A::SorParams::bench_default(), seed));
  if (app == "IDA*") return A::ida_checksum(A::ida_reference(A::IdaParams::bench_default(), seed));
  return A::ra_checksum(A::ra_reference(A::RaParams::bench_default()));
}

void add_fingerprints(const std::vector<Job>& jobs, const Pass& pass, Record& rec) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const AppResult& r = pass.runs[i].result;
    rec.fingerprints.push_back(
        "app=" + metric_name(j.app) + " variant=" + j.variant + " topo=" + j.topo +
        " partitions=" + std::to_string(j.cfg.partitions) + " seed=" +
        std::to_string(j.cfg.seed) + " sim_elapsed_ns=" + std::to_string(r.elapsed) +
        " events=" + std::to_string(r.events) + " checksum=" + std::to_string(r.checksum) +
        " trace_hash=" + std::to_string(r.trace_hash));
  }
}

/// Exact per-layer counts summed over one pass of the job set.
void add_counts(const Pass& pass, Record& rec) {
  std::map<std::string, double> sum;
  for (const Outcome& o : pass.runs) {
    const AppResult& r = o.result;
    sum["sim.events"] += static_cast<double>(r.events);
    sum["sim.epochs"] += r.stats.value("sim/epochs");
    sum["net.lan_msgs"] += r.stats.value("net/link.lan.msgs");
    sum["net.access_msgs"] += r.stats.value("net/link.access.msgs");
    sum["net.wan_wire_msgs"] += r.stats.value("net/link.wan.msgs");
    sum["net.wan_bytes"] += static_cast<double>(r.traffic.total_inter_bytes());
    for (int k = 0; k < alb::net::TrafficStats::kNumKinds; ++k) {
      sum["net.wan_msgs"] += static_cast<double>(r.traffic.kind_at(k).inter_logical_msgs);
    }
    sum["orca.rpc_calls"] += r.stats.value("orca/rpc.calls");
    sum["orca.bcast_applied"] += r.stats.value("orca/bcast.applied");
    sum["orca.seq_issued"] += r.stats.value("orca/seq.issued");
    sum["orca.barrier_rounds"] += r.stats.value("orca/barrier.rounds");
  }
  for (const auto& [k, v] : sum) rec.layer_value(k, v);
}

double barrier_wait_s(const alb::telemetry::HostTrace& t) {
  std::uint64_t ns = 0;
  for (const auto& th : t.threads) ns += th.counters[alb::telemetry::kBarrierWaitNs];
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "kernels" || name == "messaging" || name == "partitioned";
}

void sim_setup_only(const Args& args) {
  SpanLog off;
  (void)build_jobs(args, off);
}

void run_sim_workload(const Args& a, Record& rec) {
  SpanLog& spans = rec.spans;
  Checks& checks = rec.checks;
  spans.enabled = a.trace;
  std::vector<Job> jobs;
  {
    Scope s(spans, "setup");
    jobs = build_jobs(a, spans);
  }
  const double n_jobs = static_cast<double>(jobs.size());

  // Timed phase: whole passes over the job set until --seconds is used
  // up, at least two so repeats can be checked. The traced run
  // alternates untraced and traced passes; the first pass is untraced.
  // Pass walls scaled to the reference host speed: per-layer ratios and
  // differences between times taken at different moments use these.
  std::vector<Pass> passes;
  std::vector<double> untraced_wall, traced_wall, traced_speed, barrier_s;
  std::map<std::string, std::vector<double>> job_s;
  const double start = now_s();
  for (int n = 0;; ++n) {
    const bool traced = a.trace && n % 2 == 1;
    spans.enabled = traced;
    spans.run = n + 1;
    if (traced) alb::telemetry::Collector::enable();
    Pass p = run_pass(jobs, rec, "pass");
    if (traced) {
      barrier_s.push_back(barrier_wait_s(alb::telemetry::Collector::active()->harvest()));
      alb::telemetry::Collector::shutdown();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        job_s[jobs[i].metric].push_back(p.runs[i].wall_s);
      }
    }
    const double wall = p.wall();
    (traced ? traced_wall : untraced_wall).push_back(wall * p.speed());
    if (traced) traced_speed.push_back(p.speed());
    if (!a.trace) {
      rec.time_sample("wall_s", wall, p.speed());
      // No result cache sits in front of these runs: every request is
      // simulated, so the cold and the warm rate are both simulations
      // per minute.
      rec.rate_sample("cold_req_per_min", n_jobs / wall * 60.0, p.speed());
      rec.rate_sample("warm_req_per_min", n_jobs / wall * 60.0, p.speed());
    }
    check_pass(jobs, p, passes.empty() ? nullptr : &passes.front(), checks);
    passes.push_back(std::move(p));
    const double used = now_s() - start;
    const bool enough = passes.size() >= 2 && (!a.trace || !traced_wall.empty());
    if (checks.failed() > 0 || (enough && used + wall > a.seconds)) break;
  }
  spans.enabled = a.trace;
  spans.run = static_cast<int>(passes.size()) + 1;
  if (!a.trace) rec.sample("peak_rss_mb", self_peak_rss_mb());
  add_fingerprints(jobs, passes.front(), rec);

  // Each partitioned job must match the same config at partitions=1,
  // computed outside the timed phase (and timed in the traced run for
  // sim.partition_speedup).
  if (a.workload == "partitioned") {
    Pass p1 = run_pass(jobs, rec, "pass.partitions1", true);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      checks.expect(p1.runs[i].ok() && same_sim(passes.front().runs[i], p1.runs[i]),
                    "partitions=1: " + describe(jobs[i]) + " differs from partitions=" +
                        std::to_string(jobs[i].cfg.partitions));
    }
    if (a.trace) {
      rec.layer_value("sim.partition_speedup", p1.wall() * p1.speed() / median(untraced_wall));
    }
  }
  if (!a.trace) return;

  // ---- traced run only: per-layer metrics ---------------------------
  add_counts(passes.front(), rec);
  for (const auto& [metric, v] : job_s) rec.layer[metric] = v;
  rec.absent["job.*"] = "job not in this workload's job set";
  for (double b : barrier_s) rec.layer_value("sim.barrier_wait_s", b);
  if (a.workload != "partitioned") {
    rec.absent["sim.partition_speedup"] = "only the partitioned workload runs partitions>1";
  }
  rec.layer_value("bench.trace_overhead", median(traced_wall) / median(untraced_wall) - 1.0);

  // Reference kernels, once per (app, seed), counted once per
  // simulation that runs that kernel. They run after the passes, so
  // their share of the runs' time is taken at the reference host speed.
  double kernel_s = 0, with_ref_run_s = 0;
  std::vector<double> ref_slices;
  std::map<std::string, std::pair<double, std::uint64_t>> refs;  // app -> (s, checksum)
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    if (!has_reference(j.app)) continue;
    auto it = refs.find(j.app);
    if (it == refs.end()) {
      ref_slices.push_back(rec.speed.slice());
      Scope s(spans, "reference", {{"app", j.app}, {"seed", std::to_string(j.cfg.seed)}});
      const double t0 = now_s();
      const std::uint64_t sum = reference_checksum(j.app, j.cfg.seed);
      it = refs.emplace(j.app, std::make_pair(now_s() - t0, sum)).first;
    }
    kernel_s += it->second.first;
    with_ref_run_s += median(job_s[j.metric]);
    if (j.variant == "orig" || j.app != "SOR") {
      checks.expect(passes.front().runs[i].result.checksum == it->second.second,
                    "reference: " + describe(j) + " checksum differs from the sequential kernel");
    }
  }
  double run_s = 0;
  for (const Job& j : jobs) run_s += median(job_s[j.metric]);
  const double events = rec.layer["sim.events"].front();
  rec.layer_value("sim.ns_per_event", run_s / events * 1e9);
  rec.layer_value("apps.kernel_s", kernel_s);
  const double kernel_ref_s = kernel_s * HostSpeed::factor(ref_slices);
  const double with_ref_run_ref_s = with_ref_run_s * median(traced_speed);
  rec.layer_value("apps.kernel_share", kernel_ref_s / with_ref_run_ref_s);
  rec.layer_value("sim.stack_s", with_ref_run_ref_s - kernel_ref_s);

  // scenario::load on every shipped scenario the workload uses.
  std::vector<double> load_s;
  for (int i = 0; i < 21; ++i) {
    const double t0 = now_s();
    (void)alb::scenario::load(a.root + "/scenarios/das.scn");
    load_s.push_back(now_s() - t0);
  }
  rec.layer_value("scenario.load_s", median(load_s));

  // The flight recorder's cost: the messaging job set with recording on.
  if (a.workload == "messaging") {
    Pass rp = run_pass(jobs, rec, "pass.recorded", false, true);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      checks.expect(rp.runs[i].ok() && same_sim(passes.front().runs[i], rp.runs[i]),
                    "recorder: " + describe(jobs[i]) + " differs with trace.enabled");
    }
    rec.layer_value("trace.recorder_s", rp.wall() * rp.speed() - median(untraced_wall));
  } else {
    rec.absent["trace.recorder_s"] = "measured on the messaging job set only";
  }
  rec.absent["campaign.*"] = "sim workloads call the runners directly: no pool, no cache";
  rec.absent["serve.*"] = "sim workloads do not run alb-serve";
}

}  // namespace perfbench
