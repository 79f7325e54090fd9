#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "trace/chrome_trace.hpp"

namespace alb::telemetry {

namespace {

std::string fmt_us(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void write_hist(std::ostream& os, const trace::Histogram& h) {
  os << "{\"count\":" << h.count << ",\"mean\":" << fmt_g(h.mean())
     << ",\"min\":" << h.min << ",\"p50\":" << h.percentile(50)
     << ",\"p95\":" << h.percentile(95) << ",\"p99\":" << h.percentile(99)
     << ",\"max\":" << h.max << "}";
}

}  // namespace

void write_host_chrome_trace(const HostTrace& t, std::ostream& os) {
  // Anchor the timeline at the earliest span so timestamps are small
  // positive offsets, not raw steady_clock readings.
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const HostThread& th : t.threads) {
    for (const Span& s : th.spans) {
      if (!have_origin || s.t0_ns < origin) {
        origin = s.t0_ns;
        have_origin = true;
      }
    }
  }

  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"albatross host\"}}";
  for (std::size_t i = 0; i < t.threads.size(); ++i) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << i
       << ",\"args\":{\"name\":\"";
    trace::write_json_escaped(os, t.threads[i].label.empty()
                                      ? "host-thread-" + std::to_string(i)
                                      : t.threads[i].label);
    os << "\"}}";
  }
  for (std::size_t i = 0; i < t.threads.size(); ++i) {
    for (const Span& s : t.threads[i].spans) {
      os << ",\n{\"name\":\"";
      trace::write_json_escaped(os, s.name ? s.name : "?");
      os << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":0,\"tid\":" << i
         << ",\"ts\":" << fmt_us(s.t0_ns - origin) << ",\"dur\":" << fmt_us(s.t1_ns - s.t0_ns)
         << ",\"args\":{\"arg\":" << s.arg;
      if (s.label[0] != '\0') {
        os << ",\"label\":\"";
        trace::write_json_escaped(os, s.label.data());
        os << '"';
      }
      os << "}}";
    }
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\n";
  os << "\"otherData\":{\"clock\":\"wall\",\"threads\":" << t.threads.size()
     << ",\"spans\":" << t.spans_total << ",\"dropped\":" << t.dropped_total
     << ",\"wall_s\":" << fmt_g(t.wall_seconds) << "}}\n";
}

void write_host_json(const HostTrace& t, std::ostream& os) {
  std::uint64_t job_ns = 0;
  for (const HostThread& th : t.threads) {
    job_ns += th.counters[static_cast<std::size_t>(kJobNs)];
  }
  const double wall_ns = t.wall_seconds * 1e9;
  const double util = (t.pool_workers > 0 && wall_ns > 0)
                          ? std::min(1.0, static_cast<double>(job_ns) /
                                              (static_cast<double>(t.pool_workers) * wall_ns))
                          : 0.0;

  os << "{\"wall_s\":" << fmt_g(t.wall_seconds) << ",\"rss_kb\":" << t.rss_kb
     << ",\"spans\":" << t.spans_total << ",\"spans_dropped\":" << t.dropped_total << ",\n";
  os << "\"pool\":{\"jobs_total\":" << t.pool_jobs_total << ",\"jobs_done\":" << t.pool_jobs_done
     << ",\"workers\":" << t.pool_workers << ",\"utilization\":" << fmt_g(util)
     << ",\"idle_fraction\":" << fmt_g(t.pool_workers > 0 ? 1.0 - util : 0.0) << "},\n";
  os << "\"cache\":{\"hits\":" << t.cache_hit_ns.count << ",\"misses\":" << t.cache_miss_ns.count
     << ",\"hit_ns\":";
  write_hist(os, t.cache_hit_ns);
  os << ",\"miss_ns\":";
  write_hist(os, t.cache_miss_ns);
  os << "},\n\"threads\":[";
  for (std::size_t i = 0; i < t.threads.size(); ++i) {
    const HostThread& th = t.threads[i];
    if (i) os << ",\n";
    os << "{\"label\":\"";
    trace::write_json_escaped(os, th.label.empty() ? "host-thread-" + std::to_string(i)
                                                   : th.label);
    os << "\",\"spans\":" << th.spans.size() << ",\"dropped\":" << th.dropped;
    for (int c = 0; c < kNumCounters; ++c) {
      os << ",\"" << kCounterNames[c] << "\":" << th.counters[static_cast<std::size_t>(c)];
    }
    os << "}";
  }
  os << "]}\n";
}

}  // namespace alb::telemetry
