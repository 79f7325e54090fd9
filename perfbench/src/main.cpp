// perfbench: the repo benchmark's measuring process. run.py builds it,
// runs it once per invocation and aggregates the raw record it writes.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR
//             --work-dir DIR --serve-bin PATH --raw-out FILE
//   perfbench --setup-only --workload W --seed N --root DIR
//
// It refuses to measure from a Debug or sanitizer build.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(line.find_first_not_of(' ', c + 1));
    }
  }
  return "unknown";
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string raw_out;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--root") a.root = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--serve-bin") a.serve_bin = v;
    else if (k == "--raw-out") raw_out = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 || sanitized()) {
    return usage("refusing to measure a Debug or sanitizer build");
  }
#ifndef NDEBUG
  return usage("refusing to measure a build with assertions enabled");
#endif
  if (!is_sim_workload(a.workload) && a.workload != "serve") {
    return usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.root.empty()) return usage("--root is required");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  a.threads = static_cast<int>(std::clamp(nproc, 1L, 4L));
  // The shipped scenarios of the checkout, for this process and every
  // alb-serve child.
  setenv("ALB_SCENARIO_DIR", (a.root + "/scenarios").c_str(), 1);

  try {
    if (setup_only) {
      if (is_sim_workload(a.workload)) sim_setup_only(a);
      return 0;
    }
    if (raw_out.empty() || a.work_dir.empty()) return usage("--raw-out and --work-dir are required");
    const double t0 = now_s();
    Record rec;
    if (is_sim_workload(a.workload)) {
      // setup_s: spawn to exit of this binary doing only the workload's
      // set-up; the median of several spawns.
      std::vector<double> setup_s, slices;
      for (int i = 0; i < (a.trace ? 0 : 11); ++i) {
        slices.push_back(rec.speed.slice());
        const ChildRun r = run_child({argv[0], "--setup-only", "--workload", a.workload,
                                      "--seed", std::to_string(a.seed), "--root", a.root},
                                     "", "", "");
        rec.checks.expect(r.exit_code == 0, "setup: exit code " + std::to_string(r.exit_code));
        setup_s.push_back(r.wall_s);
      }
      for (double s : setup_s) rec.time_sample("setup_s", s, HostSpeed::factor(slices));
      run_sim_workload(a, rec);
    } else {
      if (a.serve_bin.empty()) return usage("--serve-bin is required for serve");
      run_serve_workload(a, rec);
    }
    if (a.trace) rec.layer_value("bench.host_speed", HostSpeed::factor(rec.speed.slices()));
    const std::map<std::string, std::string> host = {
        {"cpu_model", cpu_model()},
        {"nproc", std::to_string(nproc)},
        {"compiler", PERFBENCH_CXX},
        {"build_type", PERFBENCH_BUILD_TYPE},
    };
    std::ofstream os(raw_out, std::ios::binary);
    rec.write_json(os, a, host, now_s() - t0);
    if (!os) return usage(("cannot write " + raw_out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
