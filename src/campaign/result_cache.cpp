#include "campaign/result_cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "net/traffic_stats.hpp"
#include "telemetry/telemetry.hpp"

#ifndef ALB_BINARY_VERSION
#define ALB_BINARY_VERSION "dev"
#endif

namespace alb::campaign {

namespace {

// Written by the build (src/campaign/CMakeLists.txt, fingerprint_probe.cpp).
constexpr std::uint64_t kSemanticFingerprint =
#include "semantic_fingerprint.inc"
    ;

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One "key=value" line; returns false at end of text.
bool next_line(const std::string& text, std::size_t* pos, std::string* key, std::string* value) {
  while (*pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', *pos), text.size());
    const std::string line = text.substr(*pos, eol - *pos);
    *pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("result cache: malformed line '" + line + "'");
    }
    *key = line.substr(0, eq);
    *value = line.substr(eq + 1);
    return true;
  }
  return false;
}

/// Splits a space-separated field list; throws if the count is wrong.
std::vector<std::string> fields(const std::string& v, std::size_t expect_at_least) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t sp = std::min(v.find(' ', pos), v.size());
    if (sp > pos) out.push_back(v.substr(pos, sp - pos));
    pos = sp + 1;
  }
  if (out.size() < expect_at_least) {
    throw std::runtime_error("result cache: expected >= " + std::to_string(expect_at_least) +
                             " fields, got " + std::to_string(out.size()) + " in '" + v + "'");
  }
  return out;
}

std::uint64_t to_u64(const std::string& s) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad integer '" + s + "'");
  }
  return v;
}

std::int64_t to_i64(const std::string& s) {
  char* end = nullptr;
  const std::int64_t v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad integer '" + s + "'");
  }
  return v;
}

double to_dbl(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad number '" + s + "'");
  }
  return v;
}

}  // namespace

std::string serialize_result(const apps::AppResult& r) {
  std::string out = "albres 1\n";
  out += "elapsed=" + std::to_string(r.elapsed) + "\n";
  out += std::string("status=") +
         (r.status == apps::AppResult::RunStatus::Ok ? "ok" : "hard_failure") + "\n";
  if (!r.error.empty()) out += "error=" + r.error + "\n";
  out += "checksum=" + std::to_string(r.checksum) + "\n";
  out += "trace_hash=" + std::to_string(r.trace_hash) + "\n";
  out += "events=" + std::to_string(r.events) + "\n";
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    const net::KindCounters& c = r.traffic.kind_at(k);
    out += "traffic.kind=" + std::to_string(k) + " " + std::to_string(c.intra_msgs) + " " +
           std::to_string(c.intra_bytes) + " " + std::to_string(c.inter_msgs) + " " +
           std::to_string(c.inter_bytes) + " " + std::to_string(c.inter_logical_msgs) + " " +
           std::to_string(c.inter_logical_bytes) + "\n";
  }
  const net::CombinedCounters& cc = r.traffic.combined();
  out += "traffic.combined=" + std::to_string(cc.flushes) + " " + std::to_string(cc.members) +
         " " + std::to_string(cc.wire_bytes) + " " + std::to_string(cc.logical_bytes) + "\n";
  for (const auto& [name, v] : r.metrics) out += "metric=" + name + " " + fmt(v) + "\n";
  for (const auto& [name, v] : r.stats.counters) {
    out += "counter=" + name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : r.stats.gauges) out += "gauge=" + name + " " + fmt(v) + "\n";
  for (const auto& [name, h] : r.stats.histograms) {
    out += "hist=" + name + " " + std::to_string(h.count) + " " + std::to_string(h.sum) + " " +
           std::to_string(h.min) + " " + std::to_string(h.max);
    for (const std::uint64_t b : h.buckets) out += " " + std::to_string(b);
    out += "\n";
  }
  return out;
}

apps::AppResult parse_result(const std::string& text) {
  std::size_t pos = 0;
  {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    if (text.substr(0, eol) != "albres 1") {
      throw std::runtime_error("result cache: unsupported format header");
    }
    pos = eol + 1;
  }
  apps::AppResult r;
  std::string key, value;
  while (next_line(text, &pos, &key, &value)) {
    if (key == "elapsed") {
      r.elapsed = to_i64(value);
    } else if (key == "status") {
      if (value == "ok") r.status = apps::AppResult::RunStatus::Ok;
      else if (value == "hard_failure") r.status = apps::AppResult::RunStatus::HardFailure;
      else throw std::runtime_error("result cache: bad status '" + value + "'");
    } else if (key == "error") {
      r.error = value;
    } else if (key == "checksum") {
      r.checksum = to_u64(value);
    } else if (key == "trace_hash") {
      r.trace_hash = to_u64(value);
    } else if (key == "events") {
      r.events = to_u64(value);
    } else if (key == "traffic.kind") {
      const auto f = fields(value, 7);
      const std::int64_t k = to_i64(f[0]);
      if (k < 0 || k >= net::TrafficStats::kNumKinds) {
        throw std::runtime_error("result cache: traffic kind out of range: " + f[0]);
      }
      net::KindCounters& c = r.traffic.kind_at(static_cast<int>(k));
      c.intra_msgs = to_u64(f[1]);
      c.intra_bytes = to_u64(f[2]);
      c.inter_msgs = to_u64(f[3]);
      c.inter_bytes = to_u64(f[4]);
      c.inter_logical_msgs = to_u64(f[5]);
      c.inter_logical_bytes = to_u64(f[6]);
    } else if (key == "traffic.combined") {
      const auto f = fields(value, 4);
      net::CombinedCounters& c = r.traffic.combined_mut();
      c.flushes = to_u64(f[0]);
      c.members = to_u64(f[1]);
      c.wire_bytes = to_u64(f[2]);
      c.logical_bytes = to_u64(f[3]);
    } else if (key == "metric") {
      const auto f = fields(value, 2);
      r.metrics[f[0]] = to_dbl(f[1]);
    } else if (key == "counter") {
      const auto f = fields(value, 2);
      r.stats.counters[f[0]] = to_u64(f[1]);
    } else if (key == "gauge") {
      const auto f = fields(value, 2);
      r.stats.gauges[f[0]] = to_dbl(f[1]);
    } else if (key == "hist") {
      const auto f = fields(value, 5 + trace::Histogram::kBuckets);
      trace::Histogram& h = r.stats.histograms[f[0]];
      h.count = to_u64(f[1]);
      h.sum = to_u64(f[2]);
      h.min = to_u64(f[3]);
      h.max = to_u64(f[4]);
      for (int b = 0; b < trace::Histogram::kBuckets; ++b) {
        h.buckets[static_cast<std::size_t>(b)] = to_u64(f[static_cast<std::size_t>(5 + b)]);
      }
    } else {
      throw std::runtime_error("result cache: unknown field '" + key + "'");
    }
  }
  return r;
}

std::uint64_t semantic_fingerprint() { return kSemanticFingerprint; }

ResultCache::ResultCache(std::string disk_dir, std::string binary_version,
                         std::optional<std::uint64_t> fingerprint)
    : dir_(std::move(disk_dir)),
      version_(binary_version.empty() ? ALB_BINARY_VERSION : std::move(binary_version)),
      fingerprint_(fingerprint) {}

std::string ResultCache::key(const std::string& canonical_request) const {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, version_);
  h = fnv1a(h, std::string(1, '\0'));
  h = fnv1a(h, std::to_string(fingerprint_ ? *fingerprint_ : semantic_fingerprint()));
  h = fnv1a(h, std::string(1, '\0'));
  h = fnv1a(h, canonical_request);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

const std::string* ResultCache::find(const std::string& key, std::optional<apps::AppResult>* parsed) {
  if (auto it = mem_.find(key); it != mem_.end()) return &it->second;
  if (dir_.empty()) return nullptr;
  const std::string path = dir_ + "/" + key + ".albres";
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) return nullptr;
    std::ostringstream os;
    os << is.rdbuf();
    text = os.str();
  }
  // A disk entry is only promoted once it parses: a torn or foreign file
  // is a miss, and removing it lets the re-simulated result replace it.
  try {
    *parsed = parse_result(text);
  } catch (const std::runtime_error&) {
    ++stats_.corrupt;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return nullptr;
  }
  return &mem_.emplace(key, std::move(text)).first->second;
}

void ResultCache::count(bool hit, std::int64_t t0) {
  ++(hit ? stats_.hits : stats_.misses);
  if (telemetry::Collector* tc = telemetry::Collector::active()) {
    tc->record_cache(hit, static_cast<std::uint64_t>(telemetry::now_ns() - t0));
  }
}

// Host telemetry reads the wall clock around a lookup; the outcome and
// the returned result are identical with telemetry on or off.
const std::string* ResultCache::lookup_text(const std::string& key) {
  const std::int64_t t0 = telemetry::Collector::active() ? telemetry::now_ns() : 0;
  std::optional<apps::AppResult> parsed;
  const std::string* text = find(key, &parsed);
  count(text != nullptr, t0);
  return text;
}

std::optional<apps::AppResult> ResultCache::lookup(const std::string& key) {
  const std::int64_t t0 = telemetry::Collector::active() ? telemetry::now_ns() : 0;
  std::optional<apps::AppResult> r;
  const std::string* text = find(key, &r);
  if (text != nullptr && !r) r = parse_result(*text);
  count(r.has_value(), t0);
  return r;
}

void ResultCache::store(const std::string& key, const apps::AppResult& r) {
  std::string text = serialize_result(r);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best effort; write reports
    // Write-then-rename: a reader never sees a half-written entry.
    const std::string path = dir_ + "/" + key + ".albres";
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream os(tmp, std::ios::binary);
    os << text;
    os.close();
    if (os) std::filesystem::rename(tmp, path, ec);
    if (!os || ec) std::filesystem::remove(tmp, ec);
  }
  mem_[key] = std::move(text);
  ++stats_.stores;
}

void ResultCache::publish_metrics(trace::Metrics& m) const {
  *m.counter("campaign/cache.hits") = stats_.hits;
  *m.counter("campaign/cache.misses") = stats_.misses;
  *m.counter("campaign/cache.stores") = stats_.stores;
  *m.counter("campaign/cache.corrupt") = stats_.corrupt;
}

}  // namespace alb::campaign
