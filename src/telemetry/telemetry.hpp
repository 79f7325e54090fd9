#pragma once
// Host telemetry: a wall-clock profiler for the serving path.
//
// Everything in this module is *explicitly non-deterministic*: it reads
// real clocks, real thread state and /proc, and exists to answer "where
// does the wall time go" questions the sim-time tracer (src/trace/)
// cannot see — worker-pool utilization, epoch-barrier waits, cache
// lookup latency, serve throughput.
//
// The determinism firewall, this module's load-bearing contract:
//
//   * Telemetry READS host state and WRITES only to its own sinks —
//     the heartbeat stream, the --telemetry-out Chrome trace, the
//     --telemetry-json snapshot, and the operator-side campaign/pool.*
//     registry alb-serve builds for --metrics-out.
//   * Telemetry never writes into apps::AppResult, a per-run metrics
//     registry snapshot, a cache key or cached entry, or any byte of
//     tool stdout. Enabling or disabling it must not change a single
//     hashed or diffed output byte (tests/telemetry/firewall_test.cpp
//     and the check.sh telemetry stage pin this).
//   * Nothing in the simulation may read telemetry state back. The
//     dependency points one way: sim/campaign code *emits* spans and
//     counters when a collector is active and behaves identically when
//     none is.
//
// Mechanics: a process-global Collector (enable()/shutdown()) owns one
// fixed-capacity ThreadRing per participating thread. Spans are scoped
// RAII values (ScopedSpan) pushed into the current thread's ring by the
// single owning thread — no locks, no cross-thread writes; a full ring
// counts drops and never blocks. Harvest snapshots every ring and
// k-way-merges the spans by end time for export. Cache latencies go
// into lock-free log2-bucketed histograms; pool progress lives in plain
// atomics a heartbeat thread samples every --progress period.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/metrics.hpp"

namespace alb::telemetry {

/// Wall-clock nanoseconds on a monotonic clock (epoch unspecified;
/// differences and per-process timelines are the only valid uses).
std::int64_t now_ns();

/// Resident set size in KiB, or -1 where not cheaply available
/// (reads /proc/self/statm on Linux, one open+read, no allocation).
long rss_kb();

/// Collector configuration, fixed at enable() time.
struct Config {
  /// Per-thread span ring capacity. A full ring drops new spans (the
  /// drop is counted); it never blocks and never reallocates.
  std::size_t ring_capacity = 4096;
  /// Heartbeat period in seconds; 0 disables the heartbeat thread.
  /// When > 0, shutdown() always emits one final record, so even a
  /// run shorter than the period produces at least one heartbeat.
  double progress_period_s = 0;
  /// Heartbeat sink: a file path, or "" for stderr.
  std::string progress_path;
  /// The "job" field of every heartbeat record (e.g. "alb-serve").
  std::string job_name = "alb";
};

/// Longest span label kept (bytes, NUL excluded); longer ones are cut.
inline constexpr std::size_t kSpanLabelBytes = 47;

/// One completed wall-clock span. `name` must point to static storage
/// (string literals at call sites); `arg` is a caller-defined word
/// (job index, unit count, ...) echoed into exports; `label` is an
/// optional NUL-terminated free-form text ("" = none), e.g. a campaign
/// job's "RA opt <cache key>".
struct Span {
  const char* name = nullptr;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t arg = 0;
  std::array<char, kSpanLabelBytes + 1> label{};
};

/// Per-thread accumulator counters (nanoseconds and counts) for events
/// too frequent to record as individual spans, e.g. one epoch-barrier
/// wait per partition round.
enum Counter : int {
  kBarrierWaitNs = 0,  ///< wall ns spent inside epoch-barrier waits
  kBarrierWaits,       ///< number of barrier waits
  kJobNs,              ///< wall ns inside campaign job bodies
  kJobsRun,            ///< campaign jobs executed by this thread
  kNumCounters
};

/// Doc/export names for Counter values, index-aligned ("host/thread.<name>").
extern const char* const kCounterNames[kNumCounters];

/// One thread's span ring plus its counters. Written by exactly one
/// thread; harvested by the collector with acquire loads, so a harvest
/// concurrent with recording sees a consistent prefix.
class ThreadRing {
 public:
  explicit ThreadRing(std::size_t capacity) : buf_(capacity ? capacity : 1) {}

  /// Records a completed span, or counts a drop when the ring is full.
  /// Never blocks, never allocates.
  void push(const char* name, std::int64_t t0_ns, std::int64_t t1_ns, std::uint64_t arg,
            std::string_view label = {}) {
    const std::size_t i = count_.load(std::memory_order_relaxed);
    if (i >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Span& s = buf_[i];
    s.name = name;
    s.t0_ns = t0_ns;
    s.t1_ns = t1_ns;
    s.arg = arg;
    const std::size_t n = label.copy(s.label.data(), kSpanLabelBytes);
    s.label[n] = '\0';
    count_.store(i + 1, std::memory_order_release);
  }

  void add(Counter c, std::uint64_t v) {
    counters_[static_cast<std::size_t>(c)].fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t spans_recorded() const { return count_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }

  /// Snapshot of the recorded spans (in push order: monotone end time).
  std::vector<Span> spans() const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

 private:
  std::vector<Span> buf_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters_{};
};

/// Lock-free log2-bucketed latency histogram (same bucketing as
/// trace::Histogram, which snapshot() converts to so exports reuse
/// percentile()). Concurrent adds race benignly between fields; this
/// is host-side observability, not hashed output.
class AtomicHist {
 public:
  void add(std::uint64_t v);
  trace::Histogram snapshot() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, trace::Histogram::kBuckets> buckets_{};
};

/// Harvested state of one thread.
struct HostThread {
  std::string label;  ///< e.g. "campaign-worker-2"; "" = unlabeled
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, kNumCounters> counters{};
};

/// A full harvest: everything the exporters and tests consume.
struct HostTrace {
  std::vector<HostThread> threads;  ///< registration order
  std::uint64_t spans_total = 0;
  std::uint64_t dropped_total = 0;
  trace::Histogram cache_hit_ns;
  trace::Histogram cache_miss_ns;
  std::size_t pool_jobs_total = 0;
  std::size_t pool_jobs_done = 0;
  int pool_workers = 0;
  double wall_seconds = 0;  ///< since enable()
  long rss_kb = -1;

  /// K-way merge of every thread's spans, ordered by (t1_ns, thread
  /// index): a single chronological timeline across threads. Each
  /// element is (thread index, span).
  std::vector<std::pair<int, Span>> merged() const;
};

/// The process-global host profiler. At most one is active; every
/// instrumentation site is a no-op (one relaxed atomic load) while
/// none is.
class Collector {
 public:
  /// The active collector, or nullptr when telemetry is off. Call
  /// sites follow the recorder idiom: `if (auto* tc = Collector::active())`.
  static Collector* active() { return active_.load(std::memory_order_acquire); }

  /// Activates a fresh collector (replacing — and shutting down — any
  /// previous one) and starts the heartbeat thread if configured.
  static void enable(Config cfg = {});

  /// Deactivates: emits the final heartbeat (when progress was
  /// configured), joins the heartbeat thread and unpublishes active().
  /// The collector object stays alive until the next enable(), so a
  /// harvest() taken before shutdown remains valid. No ScopedSpan may
  /// be alive across shutdown()/enable().
  static void shutdown();

  /// The calling thread's ring, created and registered on first use.
  ThreadRing& ring();

  /// Labels the calling thread's export track ("campaign-worker-3").
  void label_thread(const std::string& label);

  // Worker-pool progress, sampled by the heartbeat thread.
  void pool_begin(std::size_t jobs_total, int workers);
  void pool_job_done() { pool_done_.fetch_add(1, std::memory_order_relaxed); }
  void pool_worker_state(int worker, bool busy);

  /// Result-cache lookup latency, split by outcome.
  void record_cache(bool hit, std::uint64_t ns) {
    (hit ? cache_hit_ : cache_miss_).add(ns);
  }

  /// Snapshot of everything. Safe to call while threads still record
  /// (each ring yields a consistent prefix); exports call it after the
  /// pool has joined.
  HostTrace harvest();

  const Config& config() const { return cfg_; }
  double wall_seconds() const;

  /// Emits one heartbeat record now (used by the heartbeat thread and,
  /// with final=true, by shutdown()). Exposed for tests.
  void emit_heartbeat(bool final_record);

 private:
  explicit Collector(Config cfg);
  ~Collector();
  void heartbeat_main();
  friend struct CollectorOwner;

  static std::atomic<Collector*> active_;

  Config cfg_;
  std::int64_t t0_ns_ = 0;

  // Thread rings: pointer-stable, registered under a mutex, harvested
  // under the same mutex. (Implementation detail in telemetry.cpp.)
  struct Registry;
  std::unique_ptr<Registry> reg_;

  AtomicHist cache_hit_;
  AtomicHist cache_miss_;

  std::atomic<std::size_t> pool_total_{0};
  std::atomic<std::size_t> pool_done_{0};
  std::atomic<int> pool_workers_{0};
  static constexpr int kMaxTrackedWorkers = 64;
  std::array<std::atomic<std::uint8_t>, kMaxTrackedWorkers> worker_busy_{};

  struct Heartbeat;
  std::unique_ptr<Heartbeat> hb_;
  std::atomic<std::uint64_t> hb_seq_{0};
};

/// RAII wall-clock span. Captures the active collector at construction;
/// no clock read and no allocation when telemetry is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t arg = 0) {
    if (Collector* c = Collector::active()) {
      ring_ = &c->ring();
      name_ = name;
      arg_ = arg;
      t0_ns_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (ring_) ring_->push(name_, t0_ns_, now_ns(), arg_, label_);
  }
  /// Updates the exported arg word (for counts known only mid-span).
  void set_arg(std::uint64_t arg) { arg_ = arg; }
  /// Sets the exported label. Callers build it only while a collector
  /// is active; the ring keeps its first kSpanLabelBytes bytes.
  void set_label(std::string label) { label_ = std::move(label); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadRing* ring_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t t0_ns_ = 0;
  std::uint64_t arg_ = 0;
  std::string label_;
};

}  // namespace alb::telemetry
