#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

int SpanLog::open(const std::string& name, std::map<std::string, std::string> labels) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run;
  s.labels = std::move(labels);
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanLog::add(const std::string& name, double t0, double t1, int parent,
                 std::map<std::string, std::string> labels) {
  if (!enabled) return -1;
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.run = run;
  s.labels = std::move(labels);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void json_series(std::ostream& os, const std::map<std::string, std::vector<double>>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, vs] : m) {
    if (!first) os << ',';
    first = false;
    json_string(os, k);
    os << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) os << ',';
      json_number(os, vs[i]);
    }
    os << ']';
  }
  os << '}';
}

void json_strings(std::ostream& os, const std::map<std::string, std::string>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    json_string(os, k);
    os << ':';
    json_string(os, v);
  }
  os << '}';
}

}  // namespace

void Record::write_json(std::ostream& os, const Args& args,
                        const std::map<std::string, std::string>& host, double total_s) const {
  os << "{\"workload\":";
  json_string(os, args.workload);
  os << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"seconds\":";
  json_number(os, args.seconds);
  os << ",\"total_s\":";
  json_number(os, total_s);
  os << ",\n\"host\":";
  json_strings(os, host);
  os << ",\n\"samples\":";
  json_series(os, samples);
  os << ",\n\"raw\":";
  json_series(os, raw);
  os << ",\n\"layer\":";
  json_series(os, layer);
  os << ",\n\"absent\":";
  json_strings(os, absent);
  os << ",\n\"checks\":{\"attempted\":" << checks.attempted() << ",\"failed\":" << checks.failed()
     << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    if (i) os << ',';
    json_string(os, checks.failures()[i]);
  }
  os << "]},\n\"fingerprints\":[";
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    if (i) os << ",\n";
    json_string(os, fingerprints[i]);
  }
  os << "],\n\"spans\":[";
  const std::vector<Span>& ss = spans.spans();
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const Span& s = ss[i];
    if (i) os << ",\n";
    os << "{\"name\":";
    json_string(os, s.name);
    os << ",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run << ",\"t0\":";
    json_number(os, s.t0);
    os << ",\"t1\":";
    json_number(os, s.t1);
    os << ",\"labels\":";
    json_strings(os, s.labels);
    os << '}';
  }
  os << "]}\n";
}

ChildRun run_child(const std::vector<std::string>& argv, const std::string& stdin_path,
                   const std::string& stdout_path, const std::string& stderr_path) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  auto redirect = [&fa](int fd, const std::string& path, int flags) {
    posix_spawn_file_actions_addopen(&fa, fd, path.empty() ? "/dev/null" : path.c_str(), flags,
                                     0644);
  };
  redirect(0, stdin_path, O_RDONLY);
  redirect(1, stdout_path, O_WRONLY | O_CREAT | O_TRUNC);
  redirect(2, stderr_path, O_WRONLY | O_CREAT | O_TRUNC);
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  ChildRun out;
  const double t0 = now_s();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return out;
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return out;
  }
  out.wall_s = now_s() - t0;
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << is.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << text;
}

}  // namespace perfbench
