// alb-serve: cache-backed batch simulation driver.
//
// Reads request lines (stdin or --requests FILE) of the form
//
//   <scenario-ref> [key=value ...]
//
// where <scenario-ref> names a shipped scenario (scenarios/<name>.scn)
// or a .scn path, and the optional overrides (app, opt, seed, clusters,
// per, coll, wan_streams, combine_bytes, adapt) apply on top of every
// expanded run of that scenario. Each expanded run is answered from the
// content-addressed result cache (src/campaign/result_cache.hpp) when
// its canonical request has been simulated before — by this process or,
// with --cache-dir, by any previous process of the same binary — and
// only the misses are simulated, sharded --jobs wide through the
// campaign engine.
//
// stdout carries one line per expanded run containing only simulated
// values, so a cache hit is byte-identical to a fresh simulation and
// `diff` across repeats/--jobs values must be empty (check.sh pins
// this). Cache statistics and throughput go to stderr; --metrics-out
// dumps the campaign/cache.* counters as CSV.
//
// --validate DIR instead parses every .scn under DIR and reports each
// file's expanded run count, failing loudly on the first bad file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "campaign/result_cache.hpp"
#include "campaign/sim_jobs.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/metrics.hpp"
#include "util/options.hpp"

namespace {

using namespace alb;

/// One expanded (request line × scenario run) unit of work.
struct Unit {
  std::string scenario;  ///< scenario name (for the output line)
  std::string label;     ///< run label within the scenario
  std::string app;       ///< resolved app registry name
  std::string key;       ///< cache key of the canonical request
  /// The output line's tail: the record the cache holds for `key`.
  const std::string* fields = nullptr;
};

[[noreturn]] void fail_request(int line_no, const std::string& msg) {
  throw std::runtime_error("request line " + std::to_string(line_no) + ": " + msg);
}

long long parse_ll(int line_no, const std::string& k, const std::string& v) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return parsed;
  } catch (const std::exception&) {
    fail_request(line_no, k + ": invalid integer '" + v + "'");
  }
}

bool parse_onoff(int line_no, const std::string& k, const std::string& v) {
  if (v == "1" || v == "true" || v == "on") return true;
  if (v == "0" || v == "false" || v == "off") return false;
  fail_request(line_no, k + ": expected 0/1/true/false/on/off, got '" + v + "'");
}

/// Applies one `key=value` override token to a unit and its config.
void apply_override(Unit* u, apps::AppConfig* cfg, int line_no, const std::string& tok) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string::npos) {
    fail_request(line_no, "override '" + tok + "' is not key=value");
  }
  const std::string k = tok.substr(0, eq);
  const std::string v = tok.substr(eq + 1);
  if (k == "app") {
    u->app = v;
  } else if (k == "opt") {
    cfg->optimized = parse_onoff(line_no, k, v);
  } else if (k == "adapt") {
    cfg->adapt = parse_onoff(line_no, k, v);
  } else if (k == "seed") {
    const long long s = parse_ll(line_no, k, v);
    if (s < 0) fail_request(line_no, "seed must be >= 0 (got " + v + ")");
    cfg->seed = static_cast<std::uint64_t>(s);
  } else if (k == "clusters") {
    const long long c = parse_ll(line_no, k, v);
    if (c < 1 || c > 1024) fail_request(line_no, "clusters must be in [1, 1024] (got " + v + ")");
    cfg->clusters = static_cast<int>(c);
  } else if (k == "per") {
    const long long p = parse_ll(line_no, k, v);
    if (p < 1 || p > 4096) fail_request(line_no, "per must be in [1, 4096] (got " + v + ")");
    cfg->procs_per_cluster = static_cast<int>(p);
  } else if (k == "coll") {
    if (v == "flat") cfg->coll = orca::coll::Mode::Flat;
    else if (v == "tree") cfg->coll = orca::coll::Mode::Tree;
    else fail_request(line_no, "coll must be 'flat' or 'tree' (got '" + v + "')");
  } else if (k == "wan_streams") {
    const long long s = parse_ll(line_no, k, v);
    if (s < 1 || s > 64) fail_request(line_no, "wan_streams must be in [1, 64] (got " + v + ")");
    cfg->wan_streams = static_cast<int>(s);
  } else if (k == "combine_bytes") {
    const long long b = parse_ll(line_no, k, v);
    if (b < -1 || b > (1ll << 30)) {
      fail_request(line_no, "combine_bytes must be in [-1, 2^30] (got " + v + ")");
    }
    cfg->combine_bytes = b;
  } else {
    fail_request(line_no,
                 "unknown override '" + k +
                     "'; known: app opt adapt seed clusters per coll wan_streams combine_bytes");
  }
}

const apps::AppEntry* find_app(const std::string& name) {
  for (const auto& e : apps::registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

/// Exact p-th percentile of `v` (sorted in place); 0 when empty.
double pct_ms(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

int validate_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "alb-serve: cannot read directory " << dir << ": " << ec.message() << '\n';
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "alb-serve: no .scn files under " << dir << '\n';
    return 1;
  }
  for (const fs::path& p : files) {
    try {
      const scenario::Scenario sc = scenario::load(p.string());
      std::cout << "ok " << p.string() << " name=" << sc.name << " runs=" << sc.runs.size()
                << '\n';
    } catch (const scenario::ScenarioError& e) {
      std::cerr << "alb-serve: " << e.what() << '\n';
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alb;
  util::Options opts;
  opts.define("requests", "", "request list file (default: read stdin)");
  opts.define("jobs", "0", "worker threads for cache misses (0 = hardware concurrency)");
  opts.define("cache-dir", "", "persist cache entries here (one file per key)");
  opts.define("metrics-out", "", "write the cache/serve metrics registry as CSV here");
  opts.define("app", "TSP", "default app when neither the scenario nor the request names one");
  opts.define("validate", "", "parse-validate every .scn under this directory and exit");
  telemetry::define_cli_options(opts);

  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: " << e.what() << '\n';
    return 2;
  }
  if (const std::string& dir = opts.get("validate"); !dir.empty()) return validate_dir(dir);

  // Host telemetry is stderr/side-file-only: stdout stays byte-identical
  // with telemetry on or off (the check.sh telemetry stage diffs it).
  telemetry::enable_from_cli(opts, "alb-serve");
  if (telemetry::Collector* tc = telemetry::Collector::active()) tc->label_thread("serve-main");
  struct TelemetryGuard {
    ~TelemetryGuard() { telemetry::Collector::shutdown(); }
  } telemetry_guard;

  std::vector<Unit> units;
  // One config per distinct key: a replayed request mix repeats a
  // handful of configs thousands of times. A missed key's config moves
  // into its SimJob.
  std::map<std::string, apps::AppConfig> configs;
  campaign::ResultCache cache(opts.get("cache-dir"));
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t request_lines = 0;
  try {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (const std::string& path = opts.get("requests"); !path.empty()) {
      file.open(path);
      if (!file) throw std::runtime_error("cannot read request file " + path);
      in = &file;
    }

    // Parsed-scenario cache: a request mix repeats a handful of
    // scenarios thousands of times; parse each file once.
    telemetry::ScopedSpan parse_span("serve.parse");
    std::map<std::string, scenario::Scenario> scenarios;
    std::string line;
    int line_no = 0;
    while (std::getline(*in, line)) {
      ++line_no;
      std::istringstream tok(line);
      std::string ref;
      if (!(tok >> ref) || ref[0] == '#') continue;
      ++request_lines;
      auto it = scenarios.find(ref);
      if (it == scenarios.end()) it = scenarios.emplace(ref, scenario::load(ref)).first;
      const scenario::Scenario& sc = it->second;
      std::vector<std::string> overrides;
      for (std::string t; tok >> t;) overrides.push_back(t);
      for (const scenario::RunPlan& plan : sc.runs) {
        Unit u;
        u.scenario = sc.name;
        u.label = plan.label;
        u.app = plan.app.empty() ? opts.get("app") : plan.app;
        apps::AppConfig cfg = plan.cfg;
        for (const std::string& t : overrides) apply_override(&u, &cfg, line_no, t);
        if (find_app(u.app) == nullptr) {
          fail_request(line_no, "unknown app '" + u.app + "'");
        }
        u.key = cache.key(scenario::canonical_request(u.app, cfg));
        configs.try_emplace(u.key, std::move(cfg));
        units.push_back(std::move(u));
      }
    }
    parse_span.set_arg(request_lines);
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: " << e.what() << '\n';
    return 2;
  }

  // Resolve every unit against the cache; simulate each distinct missed
  // key exactly once, --jobs wide. Per-unit lookup wall latency feeds
  // the hit-side tail-latency percentiles (stderr only).
  std::vector<campaign::SimJob> jobs;
  std::map<std::string, std::size_t> scheduled;  // key -> jobs index
  std::vector<double> hit_ms;
  {
    telemetry::ScopedSpan resolve_span("serve.resolve", units.size());
    for (Unit& u : units) {
      const auto l0 = std::chrono::steady_clock::now();
      u.fields = cache.lookup(u.key);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - l0)
              .count();
      if (u.fields) {
        hit_ms.push_back(ms);
      } else if (scheduled.emplace(u.key, jobs.size()).second) {
        jobs.push_back(
            campaign::SimJob{find_app(u.app)->run, std::move(configs.at(u.key)), u.app, u.key});
      }
    }
  }

  campaign::Options copts;
  copts.jobs = static_cast<int>(opts.get_int("jobs"));
  campaign::RunStats stats;
  std::vector<apps::AppResult> fresh;
  try {
    telemetry::ScopedSpan sim_span("serve.simulate", jobs.size());
    fresh = campaign::run_sim_jobs(jobs, copts, &stats);
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: simulation failed: " << e.what() << '\n';
    return 1;
  }
  // A missed unit's wall latency is its simulation job's execution
  // time (the queueing-free approximation: lookup cost is separate and
  // negligible next to a simulate).
  std::vector<double> miss_ms;
  std::vector<const std::string*> stored;
  {
    telemetry::ScopedSpan store_span("serve.store", fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      stored.push_back(&cache.store(jobs[i].key, fresh[i]));
    }
  }
  for (Unit& u : units) {
    if (!u.fields) {
      const std::size_t j = scheduled.at(u.key);
      u.fields = stored[j];
      if (j < stats.job_seconds.size() && stats.job_seconds[j] >= 0) {
        miss_ms.push_back(stats.job_seconds[j] * 1e3);
      }
    }
  }

  // One line per unit, simulated values only — a hit emits the bytes
  // the cache stored for a fresh simulation.
  {
    telemetry::ScopedSpan out_span("serve.output", units.size());
    for (const Unit& u : units) {
      std::cout << "scenario=" << u.scenario << " run=" << u.label << " app=" << u.app
                << " key=" << u.key << ' ' << *u.fields << '\n';
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const campaign::ResultCache::Stats& cs = cache.stats();
  // Request latency split hit-vs-miss: a single aggregate wall_s hides
  // the tail entirely (a 1 ms hit and a 2 s simulate average to
  // meaninglessness). Percentiles are exact (sorted samples); host
  // timings print at 9 significant digits.
  std::cerr << std::setprecision(9) << "alb-serve: requests=" << request_lines
            << " expanded=" << units.size()
            << " hits=" << cs.hits << " misses=" << cs.misses << " stores=" << cs.stores
            << " corrupt=" << cs.corrupt
            << " workers=" << stats.workers << " wall_s=" << wall << " req_per_min="
            << (wall > 0 ? static_cast<double>(units.size()) / wall * 60.0 : 0.0)
            << " hit_ms_p50=" << pct_ms(hit_ms, 50)
            << " hit_ms_p95=" << pct_ms(hit_ms, 95)
            << " hit_ms_p99=" << pct_ms(hit_ms, 99)
            << " miss_ms_p50=" << pct_ms(miss_ms, 50)
            << " miss_ms_p95=" << pct_ms(miss_ms, 95)
            << " miss_ms_p99=" << pct_ms(miss_ms, 99) << '\n';
  // The worker-pool accounting table (campaign/pool.*), stderr only.
  std::cerr << "alb-serve pool: workers=" << stats.workers << " jobs_total=" << stats.jobs_total
            << " jobs_run=" << stats.jobs_run << " jobs_cancelled=" << stats.jobs_cancelled
            << " utilization=" << stats.utilization()
            << " jobs_per_sec=" << stats.jobs_per_sec()
            << " job_s_p50=" << stats.job_seconds_percentile(50)
            << " job_s_p95=" << stats.job_seconds_percentile(95)
            << " job_s_max=" << stats.job_seconds_percentile(100) << '\n';

  if (const std::string& p = opts.get("metrics-out"); !p.empty()) {
    trace::Metrics m;
    cache.publish_metrics(m);
    campaign::publish_pool_metrics(stats, m);
    *m.counter("campaign/serve.requests") = request_lines;
    *m.counter("campaign/serve.expanded") = units.size();
    *m.counter("campaign/serve.simulated") = fresh.size();
    std::ofstream os(p, std::ios::binary);
    if (!os) {
      std::cerr << "alb-serve: cannot open " << p << " for writing\n";
      return 1;
    }
    m.snapshot().write_csv(os);
    std::cout << "wrote " << p << '\n';
  }

  // Host-telemetry artifacts + final heartbeat; diagnostics on stderr so
  // stdout stays telemetry-independent.
  if (!telemetry::finish_cli(opts, std::cerr)) return 1;
  return 0;
}
