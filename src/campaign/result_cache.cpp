#include "campaign/result_cache.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "sim/time.hpp"
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

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// The disk entry store() writes for `record` under `key`.
std::string entry_text(const std::string& key, const std::string& record) {
  return "albres 2 " + key + " " + hex64(fnv1a(kFnvOffset, record)) + "\n" + record + "\n";
}

/// The record in `text` if `text` is exactly the entry for a one-line
/// record under `key`: a cut, a flipped byte, an older format or a file
/// copied under another key's name all fail.
std::optional<std::string> checked_record(const std::string& text, const std::string& key) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string::npos || eol + 1 == text.size()) return std::nullopt;
  std::string record = text.substr(eol + 1, text.size() - eol - 2);  // minus the final '\n'
  if (record.find('\n') != std::string::npos || text != entry_text(key, record)) {
    return std::nullopt;
  }
  return record;
}

}  // namespace

std::string result_fields(const apps::AppResult& r) {
  char elapsed[32];
  std::snprintf(elapsed, sizeof elapsed, "%.9g", sim::to_seconds(r.elapsed));
  return std::string("elapsed_s=") + elapsed + " checksum=" + std::to_string(r.checksum) +
         " trace_hash=" + std::to_string(r.trace_hash) + " events=" + std::to_string(r.events) +
         " status=" + (r.status == apps::AppResult::RunStatus::Ok ? "ok" : "hard_failure");
}

std::uint64_t semantic_fingerprint() { return kSemanticFingerprint; }

ResultCache::ResultCache(std::string disk_dir, std::string binary_version,
                         std::optional<std::uint64_t> fingerprint)
    : dir_(std::move(disk_dir)),
      version_(binary_version.empty() ? ALB_BINARY_VERSION : std::move(binary_version)),
      fingerprint_(fingerprint) {}

std::string ResultCache::key(const std::string& canonical_request) const {
  std::uint64_t h = fnv1a(kFnvOffset, version_);
  h = fnv1a(h, std::string(1, '\0'));
  h = fnv1a(h, std::to_string(fingerprint_ ? *fingerprint_ : semantic_fingerprint()));
  h = fnv1a(h, std::string(1, '\0'));
  return hex64(fnv1a(h, canonical_request));
}

const std::string* ResultCache::find(const std::string& key) {
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
  // A disk entry is only promoted once it passes the check: a torn or
  // foreign file is a miss, and removing it lets the re-simulated result
  // replace it.
  std::optional<std::string> record = checked_record(text, key);
  if (!record) {
    ++stats_.corrupt;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return nullptr;
  }
  return &mem_.emplace(key, std::move(*record)).first->second;
}

// Host telemetry reads the wall clock around a lookup; the outcome and
// the returned record are identical with telemetry on or off.
const std::string* ResultCache::lookup(const std::string& key) {
  const std::int64_t t0 = telemetry::Collector::active() ? telemetry::now_ns() : 0;
  const std::string* record = find(key);
  ++(record ? stats_.hits : stats_.misses);
  if (telemetry::Collector* tc = telemetry::Collector::active()) {
    tc->record_cache(record != nullptr, static_cast<std::uint64_t>(telemetry::now_ns() - t0));
  }
  return record;
}

const std::string& ResultCache::store(const std::string& key, const apps::AppResult& r) {
  std::string record = result_fields(r);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best effort; write reports
    // Write-then-rename: a reader never sees a half-written entry.
    const std::string path = dir_ + "/" + key + ".albres";
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream os(tmp, std::ios::binary);
    os << entry_text(key, record);
    os.close();
    if (os) std::filesystem::rename(tmp, path, ec);
    if (!os || ec) std::filesystem::remove(tmp, ec);
  }
  ++stats_.stores;
  return mem_[key] = std::move(record);
}

void ResultCache::publish_metrics(trace::Metrics& m) const {
  *m.counter("campaign/cache.hits") = stats_.hits;
  *m.counter("campaign/cache.misses") = stats_.misses;
  *m.counter("campaign/cache.stores") = stats_.stores;
  *m.counter("campaign/cache.corrupt") = stats_.corrupt;
}

}  // namespace alb::campaign
