#pragma once
// Content-addressed simulation result cache.
//
// Every run is a pure function of its canonical request text (see
// scenario::canonical_request) and the binary version, so the cache
// key hash(version + request) identifies a result *exactly*: a hit
// returns the record a re-simulation would produce, which is what lets
// a sweep service answer repeated requests with zero re-simulation and
// a byte-identical response stream. The binary version participates in
// the key because a code change may move event timing even when the
// request text is unchanged. The version is the git revision read when
// the build was configured, so an incremental rebuild after a pull
// keeps it; the key therefore also folds in semantic_fingerprint(),
// which moves with the schedule itself.
//
// The stored record is result_fields(r): the five simulated values
// alb-serve prints, one line, nothing else of the AppResult. An
// optional disk directory persists entries one file per key, so a warm
// cache survives process restarts of the same binary. A disk entry is
//
//   albres 2 <key> <fnv1a64-hex of record>\n<record>\n
//
// and is served only if it is exactly that for the key it is read
// under; anything else is a counted corrupt miss.
//
// Thread-safety: none. The intended pattern (tools/alb_serve.cpp) is
// plan -> run the misses through run_sim_jobs (the parallelism lives
// there) -> store -> emit, all on the driving thread.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "apps/app.hpp"
#include "trace/metrics.hpp"

namespace alb::campaign {

/// The cached record of `r`, the tail of alb-serve's output line:
/// `elapsed_s=<%.9g> checksum=<u64> trace_hash=<u64> events=<u64>
/// status=ok|hard_failure`.
std::string result_fields(const apps::AppResult& r);

/// The simulator's semantic fingerprint: the trace_hash of a tiny
/// canonical run whose writers contend on the rotating sequencer. A
/// change that moves that event schedule moves the fingerprint, and with
/// it every cache key, even when the binary version did not change.
/// The build computes it (fingerprint_probe.cpp), so no process pays
/// for the probe run.
std::uint64_t semantic_fingerprint();

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    /// Disk entries that failed the integrity check (each also counts
    /// as a miss).
    std::uint64_t corrupt = 0;
  };

  /// `disk_dir`: "" = memory-only; otherwise entries are also written
  /// to (and on miss read from) `<disk_dir>/<key>.albres`.
  /// `binary_version`: defaults to the build's ALB_BINARY_VERSION.
  /// `fingerprint`: defaults to semantic_fingerprint().
  explicit ResultCache(std::string disk_dir = "", std::string binary_version = "",
                       std::optional<std::uint64_t> fingerprint = std::nullopt);

  const std::string& binary_version() const { return version_; }

  /// The content address of a canonical request under this binary and
  /// fingerprint.
  std::string key(const std::string& canonical_request) const;

  /// The stored record, or nullptr on a miss. Memory first, then disk (a
  /// disk hit is promoted to memory). Counts a hit or a miss. A disk
  /// entry that fails the integrity check is a miss: it is counted as
  /// corrupt and its file is removed. The record stays at its address
  /// for the cache's lifetime.
  const std::string* lookup(const std::string& key);

  /// Stores result_fields(r) and returns the stored record. On disk it
  /// writes `<key>.albres.tmp.<pid>` and renames it into place, so a
  /// concurrent reader sees the old entry or the new one, never a torn one.
  const std::string& store(const std::string& key, const apps::AppResult& r);

  const Stats& stats() const { return stats_; }

  /// Publishes campaign/cache.{hits,misses,stores,corrupt} counters.
  void publish_metrics(trace::Metrics& m) const;

 private:
  const std::string* find(const std::string& key);

  std::string dir_;
  std::string version_;
  std::optional<std::uint64_t> fingerprint_;
  std::map<std::string, std::string> mem_;  // key -> record
  Stats stats_;
};

}  // namespace alb::campaign
