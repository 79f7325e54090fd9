// The serve workload: the real alb-serve binary, driven as a child
// process over a generated request file, in two phases per iteration.
//
//   cold  a fresh --cache-dir: every request is simulated, serialized and
//         written through the campaign worker pool.
//   warm  new processes, one after another, each replay the list
//         ServePlan::replay times over the populated directory: entries
//         are read and parsed from disk once, then hit in memory; no
//         simulation runs.
//
// Both phases are timed from outside, spawn to reaped exit.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "requests.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kWarmProcesses = 3;

/// The `key=value` tokens of the stderr line starting with `prefix`.
std::map<std::string, std::string> stat_line(const std::string& err, const std::string& prefix) {
  std::map<std::string, std::string> kv;
  std::istringstream in(err);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream tok(line.substr(prefix.size()));
    for (std::string t; tok >> t;) {
      const std::size_t eq = t.find('=');
      if (eq != std::string::npos) kv[t.substr(0, eq)] = t.substr(eq + 1);
    }
  }
  return kv;
}

double num(const std::map<std::string, std::string>& kv, const std::string& k) {
  auto it = kv.find(k);
  return it == kv.end() ? 0.0 : std::stod(it->second);
}

/// Value of ` name=` in an output line, up to the next field. Run labels
/// may contain spaces, so fields are cut at the known next key.
std::string field(const std::string& line, const std::string& name, const std::string& next) {
  const std::size_t b = line.find(name + "=");
  if (b == std::string::npos) return "";
  const std::size_t v = b + name.size() + 1;
  const std::size_t e = next.empty() ? line.size() : line.find(" " + next + "=", v);
  return line.substr(v, e == std::string::npos ? std::string::npos : e - v);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) out.push_back(l);
  return out;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

/// One span of an alb-serve --telemetry-out Chrome trace: start offset
/// from the child's first span and duration, in seconds.
struct ChildSpan {
  std::string name;
  double ts = 0;
  double dur = 0;
};

std::vector<ChildSpan> telemetry_spans(const std::string& path) {
  static const std::regex ev(
      "\"name\":\"([^\"]+)\",\"cat\":\"host\".*\"ts\":([0-9.]+),\"dur\":([0-9.]+)");
  std::vector<ChildSpan> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    std::smatch m;
    if (std::regex_search(line, m, ev)) {
      out.push_back({m[1], std::stod(m[2]) * 1e-6, std::stod(m[3]) * 1e-6});
    }
  }
  return out;
}

struct Phase {
  ChildRun run;
  std::string out;
  std::map<std::string, std::string> stats;
  std::map<std::string, std::string> pool;
  std::map<std::string, double> span_s;  ///< child telemetry seconds by span name
};

}  // namespace

void run_serve_workload(const Args& a, Record& rec) {
  SpanLog& spans = rec.spans;
  Checks& checks = rec.checks;
  spans.enabled = a.trace;

  const ServePlan plan = generate_requests(a.seed);
  const ServePlan again = generate_requests(a.seed);
  std::string list, first_line;
  for (const ServeRequest& r : plan.requests) list += r.line() + "\n";
  {
    std::string list2;
    for (const ServeRequest& r : again.requests) list2 += r.line() + "\n";
    checks.expect(list == list2, "generator: the same seed gave different requests");
    std::vector<std::string> sorted = lines_of(list);
    std::sort(sorted.begin(), sorted.end());
    checks.expect(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                  "generator: duplicate request lines");
  }
  first_line = plan.requests.front().line() + "\n";
  std::string replay;
  for (int i = 0; i < plan.replay; ++i) replay += list;
  const std::string req_path = a.work_dir + "/requests.txt";
  const std::string replay_path = a.work_dir + "/replay.txt";
  const std::string one_path = a.work_dir + "/one.txt";
  write_file(req_path, list);
  write_file(replay_path, replay);
  write_file(one_path, first_line);
  const double expanded = static_cast<double>(plan.expanded());

  // Scenario shapes for the fingerprints; timed as scenario.load_s.
  std::map<std::string, alb::scenario::Scenario> scn;
  {
    Scope s(spans, "setup");
    for (const std::string& name : plan.scenarios()) {
      Scope l(spans, "scenario.load", {{"scenario", name}});
      scn[name] = alb::scenario::load(a.root + "/scenarios/" + name + ".scn");
    }
  }

  const std::string jobs = std::to_string(a.threads);
  auto serve = [&](const std::string& requests, const std::string& cache, const std::string& tag,
                   bool traced) {
    Phase ph;
    std::vector<std::string> argv = {a.serve_bin, "--requests", requests, "--jobs", jobs,
                                     "--cache-dir", cache};
    const std::string trace_path = a.work_dir + "/" + tag + ".trace.json";
    if (traced) {
      argv.push_back("--telemetry-out");
      argv.push_back(trace_path);
    }
    const std::string out_path = a.work_dir + "/" + tag + ".out";
    const std::string err_path = a.work_dir + "/" + tag + ".err";
    const int span = spans.enabled ? spans.open("serve." + tag) : -1;
    const double t0 = now_s();
    ph.run = run_child(argv, "", out_path, err_path);
    if (span >= 0) spans.close(span);
    ph.out = read_file(out_path);
    const std::string err = read_file(err_path);
    ph.stats = stat_line(err, "alb-serve: ");
    ph.pool = stat_line(err, "alb-serve pool: ");
    checks.expect(ph.run.exit_code == 0, "serve " + tag + ": exit code " +
                                             std::to_string(ph.run.exit_code) + ": " +
                                             err.substr(0, 300));
    if (traced) {
      // The child's spans become children of the phase span, placed from
      // the spawn time (its timestamps count from its own first span);
      // campaign.job spans run on the pool's workers inside
      // serve.simulate.
      const std::vector<ChildSpan> child = telemetry_spans(trace_path);
      int simulate = span;
      for (bool jobs_pass : {false, true}) {
        for (const ChildSpan& c : child) {
          if ((c.name == "campaign.job") != jobs_pass) continue;
          const int id = spans.add(c.name, t0 + c.ts, t0 + c.ts + c.dur,
                                   jobs_pass ? simulate : span,
                                   {{"source", "alb-serve --telemetry-out"}});
          if (c.name == "serve.simulate") simulate = id;
          ph.span_s[c.name] += c.dur;
        }
      }
    }
    fs::remove(out_path);
    fs::remove(err_path);
    fs::remove(trace_path);
    return ph;
  };

  std::string cold_reference;
  std::vector<double> untraced_wall, traced_wall;
  const double start = now_s();
  for (int n = 0;; ++n) {
    const bool traced = a.trace && n % 2 == 1;
    spans.enabled = traced;
    spans.run = n + 1;
    const std::string cache = a.work_dir + "/cache" + std::to_string(n);
    // Host-speed slices before, between and after the two phases.
    // The cold phase runs a worker pool, so its slices run pool-wide.
    std::vector<double> cold_slices, warm_slices;
    auto calibrate = [&](std::vector<double>& into, int threads) {
      Scope c(spans, "host_speed");
      for (int i = 0; i < 3; ++i) into.push_back(rec.speed.slice(threads));
    };
    calibrate(cold_slices, a.threads);
    Phase cold = serve(req_path, cache, "cold", traced);
    const double disk = static_cast<double>(dir_bytes(cache));
    calibrate(cold_slices, a.threads);
    calibrate(warm_slices, 1);
    // Warm processes vary more from one to the next than the host does,
    // so each iteration starts several.
    std::vector<Phase> warms;
    for (int i = 0; i < kWarmProcesses; ++i) {
      warms.push_back(serve(replay_path, cache, "warm", traced));
    }
    calibrate(warm_slices, 1);
    const double cold_speed = HostSpeed::factor(cold_slices);
    const double warm_speed = HostSpeed::factor(warm_slices);
    Phase& warm = warms.front();

    const std::vector<std::string> out = lines_of(cold.out);
    checks.expect(out.size() == plan.expanded(), "serve cold: " + std::to_string(out.size()) +
                                                     " output lines for " +
                                                     std::to_string(plan.expanded()) + " requests");
    for (const std::string& l : out) {
      checks.expect(field(l, "status", "") == "ok", "serve cold: " + l);
    }
    std::string cold_x_replay;
    for (int i = 0; i < plan.replay; ++i) cold_x_replay += cold.out;
    for (const Phase& w : warms) {
      checks.expect(w.out == cold_x_replay, "serve warm: stdout differs from the cold stdout");
      checks.expect(num(w.stats, "misses") == 0, "serve warm: cache misses");
    }
    if (n == 0) {
      cold_reference = cold.out;
      // Fingerprint each expanded request; the cache key is left out,
      // since it hashes the binary version.
      std::size_t li = 0;
      double events = 0;
      for (const ServeRequest& r : plan.requests) {
        const alb::scenario::Scenario& sc = scn.at(r.scenario);
        const int c = r.clusters > 0 ? r.clusters : sc.base.clusters;
        const int p = r.per > 0 ? r.per : sc.base.procs_per_cluster;
        for (int k = 0; k < r.runs && li < out.size(); ++k, ++li) {
          const std::string& l = out[li];
          const std::string run = field(l, "run", "app");
          const bool opt = r.opt >= 0 ? r.opt == 1 : run.find("opt=1") != std::string::npos;
          const std::string ev = field(l, "events", "status");
          if (!ev.empty()) events += std::stod(ev);
          rec.fingerprints.push_back(
              "app=" + r.app + " variant=" + (opt ? "opt" : "orig") + " topo=" +
              std::to_string(c) + "x" + std::to_string(p) + " partitions=1 scenario=" +
              r.scenario + " run=" + run + " sim_elapsed_s=" + field(l, "elapsed_s", "checksum") +
              " events=" + ev + " checksum=" +
              field(l, "checksum", "trace_hash") + " trace_hash=" +
              field(l, "trace_hash", "events"));
        }
      }
      if (a.trace) rec.layer_value("sim.events", events);

      // setup_s: spawn to exit of alb-serve answering one cached
      // request, which covers process start, scenario load and cache
      // open; the median of several spawns.
      std::vector<double> setup_s, slices;
      for (int i = 0; i < 11; ++i) {
        slices.push_back(rec.speed.slice());
        Scope s(spans, "serve.setup");
        const ChildRun r = run_child({a.serve_bin, "--requests", one_path, "--jobs", jobs,
                                      "--cache-dir", cache},
                                     "", "", "");
        checks.expect(r.exit_code == 0, "serve setup: exit code " + std::to_string(r.exit_code));
        setup_s.push_back(r.wall_s);
      }
      if (!a.trace) {
        for (double s : setup_s) rec.time_sample("setup_s", s, HostSpeed::factor(slices));
      }
    } else {
      checks.expect(cold.out == cold_reference, "serve cold: output differs from iteration 1");
    }
    std::error_code ec;
    fs::remove_all(cache, ec);

    const double wall = cold.run.wall_s + warm.run.wall_s;
    const double scaled = cold.run.wall_s * cold_speed + warm.run.wall_s * warm_speed;
    (traced ? traced_wall : untraced_wall).push_back(scaled);
    if (!a.trace) {
      rec.time_sample("wall_s", wall, scaled / wall);
      rec.rate_sample("cold_req_per_min", expanded / cold.run.wall_s * 60.0, cold_speed);
      for (const Phase& w : warms) {
        rec.rate_sample("warm_req_per_min", expanded * plan.replay / w.run.wall_s * 60.0,
                        warm_speed);
      }
      rec.sample("peak_rss_mb", std::max(cold.run.maxrss_mb, warm.run.maxrss_mb));
    } else if (traced) {
      rec.layer_value("campaign.pool_utilization", num(cold.pool, "utilization"));
      rec.layer_value("campaign.job_s_p50", num(cold.pool, "job_s_p50"));
      rec.layer_value("campaign.job_s_p95", num(cold.pool, "job_s_p95"));
      for (const char* k : {"hits", "misses", "stores"}) {
        rec.layer_value(std::string("campaign.cold.cache_") + k, num(cold.stats, k));
        rec.layer_value(std::string("campaign.warm.cache_") + k, num(warm.stats, k));
      }
      rec.layer_value("campaign.cache_disk_bytes", disk);
      rec.layer_value("campaign.hit_ms_p50", num(warm.stats, "hit_ms_p50"));
      rec.layer_value("campaign.hit_ms_p99", num(warm.stats, "hit_ms_p99"));
      for (const char* s : {"parse", "resolve", "output"}) {
        rec.layer_value(std::string("serve.") + s + "_s", warm.span_s["serve." + std::string(s)]);
      }
      for (const char* s : {"simulate", "store"}) {
        rec.layer_value(std::string("serve.") + s + "_s", cold.span_s["serve." + std::string(s)]);
      }
    }
    const bool enough = untraced_wall.size() >= (a.trace ? 1u : 2u) &&
                        (!a.trace || !traced_wall.empty());
    const double used = now_s() - start;
    if (checks.failed() > 0 || (enough && used + used / (n + 1) > a.seconds)) break;
  }
  rec.fingerprints.insert(rec.fingerprints.begin(),
                          "serve requests=" + std::to_string(plan.requests.size()) +
                              " expanded=" + std::to_string(plan.expanded()) +
                              " replay=" + std::to_string(plan.replay));
  if (!a.trace) return;

  rec.layer_value("bench.trace_overhead", median(traced_wall) / median(untraced_wall) - 1.0);
  std::vector<double> load_s;
  for (int i = 0; i < 21; ++i) {
    const double t0 = now_s();
    for (const std::string& name : plan.scenarios()) {
      (void)alb::scenario::load(a.root + "/scenarios/" + name + ".scn");
    }
    load_s.push_back(now_s() - t0);
  }
  rec.layer_value("scenario.load_s", median(load_s));
  const char* in_child = "runs inside the alb-serve child, which exposes no per-run host counters";
  rec.absent["apps.*"] = in_child;
  rec.absent["net.*"] = in_child;
  rec.absent["orca.*"] = in_child;
  rec.absent["sim.*"] = in_child;
  rec.absent["job.*"] = "serve has no fixed in-process job set";
  rec.absent["trace.recorder_s"] = "measured on the messaging job set only";
}

}  // namespace perfbench
