#pragma once
// Shared plumbing of the measuring process: the raw record it hands to
// run.py, the output checks that feed fail_ratio, the in-memory span log
// of a traced run, and child-process spawning with wait4 accounting.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "host_speed.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line arguments of one benchmark invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;       ///< checkout root (scenarios/ lives here)
  std::string work_dir;   ///< working files, inside the checkout
  std::string serve_bin;  ///< the alb-serve binary built from the checkout
  int threads = 1;        ///< min(4, nproc): partition threads, serve --jobs
};

/// Output checks. Every check is one attempted operation; a failed one
/// counts in fail_ratio and makes the benchmark exit non-zero.
class Checks {
 public:
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 50) failures_.push_back(what);
    }
    return ok;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One traced call into a layer. Times are seconds on the steady clock;
/// `run` is the pass (or serve iteration) the span belongs to, 0 for
/// set-up.
struct Span {
  std::string name;
  double t0 = 0;
  double t1 = 0;
  int id = 0;
  int parent = -1;
  int run = 0;
  std::map<std::string, std::string> labels;
};

/// Spans stay in memory and are written with the record at exit. A
/// disabled log (the untraced run) records nothing.
class SpanLog {
 public:
  bool enabled = false;
  int run = 0;

  int open(const std::string& name, std::map<std::string, std::string> labels = {});
  void close(int id);
  /// Records an already-timed span (e.g. a child process's telemetry);
  /// returns its id, or -1 when the log is off.
  int add(const std::string& name, double t0, double t1, int parent,
          std::map<std::string, std::string> labels = {});
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer; free when the log is off.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, std::map<std::string, std::string> labels = {})
      : log_(log), id_(log.enabled ? log.open(name, std::move(labels)) : -1) {}
  ~Scope() {
    if (id_ >= 0) log_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Everything one invocation measured, written as JSON for run.py to
/// aggregate. `samples` are end-to-end repeats scaled to the reference
/// host speed (run.py reports their median and quartiles) and `raw` the
/// same repeats as measured; `layer` holds per-layer samples, as
/// measured; `absent` says why a per-layer metric does not apply to this
/// workload.
struct Record {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> raw;
  std::map<std::string, std::vector<double>> layer;
  std::map<std::string, std::string> absent;
  std::vector<std::string> fingerprints;
  Checks checks;
  SpanLog spans;
  HostSpeed speed;

  /// An end-to-end time, and a rate, measured on a host running at
  /// `speed` (HostSpeed::factor) times the reference speed.
  void time_sample(const std::string& metric, double secs, double speed) {
    raw[metric].push_back(secs);
    samples[metric].push_back(secs * speed);
  }
  void rate_sample(const std::string& metric, double rate, double speed) {
    raw[metric].push_back(rate);
    samples[metric].push_back(rate / speed);
  }
  void sample(const std::string& metric, double v) {
    raw[metric].push_back(v);
    samples[metric].push_back(v);
  }
  void layer_value(const std::string& metric, double v) { layer[metric].push_back(v); }
  void write_json(std::ostream& os, const Args& args, const std::map<std::string, std::string>& host,
                  double total_s) const;
};

/// Outcome of one child process run to completion.
struct ChildRun {
  int exit_code = -1;  ///< -1 when killed by a signal or not started
  double wall_s = 0;   ///< spawn to reaped exit, timed from this process
  double maxrss_mb = 0;
};

/// Spawns argv[0] with stdin/stdout/stderr redirected to the given
/// files ("" = /dev/null) and waits for it with wait4.
ChildRun run_child(const std::vector<std::string>& argv, const std::string& stdin_path,
                   const std::string& stdout_path, const std::string& stderr_path);

/// Peak RSS of this process in MiB.
double self_peak_rss_mb();

double median(std::vector<double> v);

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
