#pragma once
// Metrics registry: named counters, gauges and histograms.
//
// Contracts:
//   * Determinism — instruments are stored in name-ordered maps and
//     snapshots iterate them in that order, so two identical runs
//     produce byte-identical CSV/JSON dumps regardless of registration
//     order or worker placement. Values are derived from simulated
//     state only (never wall time).
//   * Thread-safety — a Metrics registry belongs to one simulation
//     (one Harness, one thread). Campaigns give every job its own
//     registry and merge the resulting snapshots; the registry itself
//     is not synchronized.
//   * Overhead — counter()/gauge()/histogram() do one map lookup and
//     are meant for setup time; hot paths cache the returned pointer
//     (stable for the registry's lifetime) and pay one add/increment.
//
// Naming convention: `<scope>/<subsystem>.<metric>` with scope one of
// sim | net | orca | app | campaign (see docs/OBSERVABILITY.md for the
// full catalogue and units). Counters and histogram samples are
// integral (counts, bytes, nanoseconds); gauges are doubles (ratios,
// derived values).

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace alb::trace {

/// Power-of-two-bucketed histogram of non-negative integer samples
/// (bytes, nanoseconds). Bucket i counts samples whose bit width is i,
/// i.e. values in [2^(i-1), 2^i); bucket 0 counts zeros. Exact count,
/// sum, min and max ride along, so means are exact and percentiles are
/// bucket-resolution approximations (reported as the bucket's upper
/// bound).
struct Histogram {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void add(std::uint64_t v);
  /// Element-wise accumulation (campaign aggregation across runs).
  void merge(const Histogram& other);

  double mean() const { return count ? static_cast<double>(sum) / count : 0.0; }
  /// Approximate p-th percentile (p in [0,100]), as the upper bound of
  /// the bucket containing that rank. Exact for min/max extremes.
  std::uint64_t percentile(double p) const;
};

/// A full, order-stable dump of a registry (or a merge of several).
/// This is the value type carried in apps::AppResult and aggregated by
/// campaigns; it is plain data and freely copyable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Accumulates `other` into this snapshot: counters and gauges add,
  /// histograms merge.
  void merge(const MetricsSnapshot& other);

  /// Counter-or-gauge lookup by exact name; 0 when absent.
  double value(const std::string& name) const;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  /// `name,kind,value[,count,mean,p50,p99,max]` rows, header included,
  /// name-ordered — byte-stable for determinism diffs.
  void write_csv(std::ostream& os) const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;
};

/// The registry. Instruments are created on first use and live as long
/// as the registry; returned pointers are stable (node-based storage),
/// so hot paths fetch them once at setup and never search again.
class Metrics {
 public:
  /// Monotonic integral counter. The pointer is the instrument: hot
  /// paths do `*c += n` directly.
  std::uint64_t* counter(const std::string& name) { return &counters_[name]; }
  /// Last-writer-wins double value.
  double* gauge(const std::string& name) { return &gauges_[name]; }
  /// Log2-bucketed distribution.
  Histogram* histogram(const std::string& name) { return &hists_[name]; }

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace alb::trace
