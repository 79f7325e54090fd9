#pragma once
// Content-addressed simulation result cache.
//
// Every run is a pure function of its canonical request text (see
// scenario::canonical_request) and the binary version, so the cache
// key hash(version + request) identifies a result *exactly*: a hit
// returns the stored AppResult bit-identical to re-simulation, which
// is what lets a sweep service answer repeated requests with zero
// re-simulation and a byte-identical response stream. The binary
// version participates in the key because a code change may move
// event timing even when the request text is unchanged. The version is
// the git revision read when the build was configured, so an
// incremental rebuild after a pull keeps it; the key therefore also
// folds in semantic_fingerprint(), which moves with the schedule itself.
//
// Storage is a versioned text serialization of AppResult minus the
// flight-recorder trace (cached requests run untraced; metrics and
// traffic counters are simulated values and round-trip exactly).
// An optional disk directory persists entries one file per key, so a
// warm cache survives process restarts of the same binary.
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

/// Serializes `r` (minus the trace) as versioned text ("albres 1").
/// Doubles render as %.17g and round-trip bit-exactly.
std::string serialize_result(const apps::AppResult& r);

/// Inverse of serialize_result. Throws std::runtime_error on malformed
/// or version-mismatched text.
apps::AppResult parse_result(const std::string& text);

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
    /// Disk entries that failed to parse (each also counts as a miss).
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

  /// Memory first, then disk (a disk hit is promoted to memory).
  /// Counts a hit or a miss. A disk entry that does not parse is a miss:
  /// it is counted as corrupt and its file is removed.
  std::optional<apps::AppResult> lookup(const std::string& key);

  /// Serialized-form lookup: the exact stored bytes, not re-parsed on a
  /// memory hit (a disk entry is parsed once, when it is promoted). The
  /// byte-identity the serve path emits is this string's.
  const std::string* lookup_text(const std::string& key);

  /// Writes `<key>.albres.tmp.<pid>` and renames it into place, so a
  /// concurrent reader sees the old entry or the new one, never a torn one.
  void store(const std::string& key, const apps::AppResult& r);

  const Stats& stats() const { return stats_; }

  /// Publishes campaign/cache.{hits,misses,stores,corrupt} counters.
  void publish_metrics(trace::Metrics& m) const;

 private:
  /// Memory, then disk; a parsed disk entry is also left in *parsed.
  const std::string* find(const std::string& key, std::optional<apps::AppResult>* parsed);
  void count(bool hit, std::int64_t t0);

  std::string dir_;
  std::string version_;
  std::optional<std::uint64_t> fingerprint_;
  std::map<std::string, std::string> mem_;  // key -> serialized text
  Stats stats_;
};

}  // namespace alb::campaign
