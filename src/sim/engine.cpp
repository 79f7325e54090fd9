#include "sim/engine.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace alb::sim {

/// Friend shim so the detached-wrapper coroutine (an implementation
/// detail below) can report completion without widening Engine's API.
struct DetachedTask {
  static void finish(Engine* eng) { eng->note_task_finished(); }
};

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

/// Detached wrapper coroutine: keeps the spawned Task's frame alive for
/// its whole run, reports completion to the engine, and self-destructs
/// (final_suspend = suspend_never).
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    // Eager start: run_detached is invoked from inside a queued event, so
    // the body begins at exactly the scheduled simulated time.
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      // A detached simulated process must not leak exceptions: there is
      // nobody to deliver them to, and continuing would corrupt the run.
      std::fputs("albatross: unhandled exception escaped a detached process\n", stderr);
      std::abort();
    }
  };
};

Detached run_detached(Engine* eng, Task<void> task) {
  struct DoneGuard {
    Engine* eng;
    ~DoneGuard() { DetachedTask::finish(eng); }
  } guard{eng};
  co_await std::move(task);
}

// Dispatch context. Thread-local so every epoch-loop worker thread has
// its own: the engine it is dispatching for, which partition, and which
// owner's event is running.
thread_local Engine* g_current_engine = nullptr;
thread_local int g_cur_part = -1;
thread_local std::int32_t g_cur_owner = -1;

}  // namespace

Engine* current_engine() { return g_current_engine; }

void schedule_resume_now(std::coroutine_handle<> h) {
  assert(g_current_engine && "coroutine resumed outside engine dispatch");
  g_current_engine->schedule_resume_after(0, h);
}

Engine::Engine() { configure(PartitionConfig{}); }

void Engine::configure(const PartitionConfig& cfg) {
  assert(pending_events() == 0 && tasks_spawned() == 0 &&
         "configure() must precede all scheduling and spawning");
  owners_ = std::max(1, cfg.owners);
  lookahead_ = cfg.lookahead;
  partitions_ = std::clamp(cfg.partitions, 1, owners_);
  // Zero lookahead offers no safe window to run ahead in: degenerate
  // topologies fall back to the sequential schedule (which every
  // partition count must match anyway).
  if (lookahead_ <= 0) partitions_ = 1;
  threads_cfg_ = cfg.threads;
  parts_ = std::vector<Partition>(static_cast<std::size_t>(partitions_));
  mail_ = std::vector<std::vector<Staged>>(static_cast<std::size_t>(partitions_) *
                                           static_cast<std::size_t>(partitions_));
  lamport_.assign(static_cast<std::size_t>(owners_) + 1, 0);
  hash_.assign(static_cast<std::size_t>(owners_), kFnvBasis);
  owner_events_.assign(static_cast<std::size_t>(owners_), 0);
  owner_tasks_spawned_.assign(static_cast<std::size_t>(owners_), 0);
  owner_tasks_finished_.assign(static_cast<std::size_t>(owners_), 0);
  now_ = 0;
  epochs_ = 0;
  stopped_ = false;
  attach_trace(session_);  // re-resolve recorder shards for the new owner count
}

OwnerId Engine::current_owner() const {
  if (g_current_engine == this && g_cur_owner >= 0) return g_cur_owner;
  return static_cast<OwnerId>(owners_);
}

SimTime Engine::now() const {
  if (g_current_engine == this && g_cur_part >= 0) {
    return parts_[static_cast<std::size_t>(g_cur_part)].now;
  }
  return now_;
}

void Engine::push_local(SimTime t, EventKey key, OwnerId exec, UniqueFunction fn) {
  parts_[static_cast<std::size_t>(partition_of(exec))].queue.push(t, key, exec,
                                                                  std::move(fn));
}

void Engine::schedule_at(SimTime t, UniqueFunction fn) {
  assert(t >= now() && "cannot schedule an event in the simulated past");
  const OwnerId exec = exec_owner_here();
  push_local(t, next_key(current_owner()), exec, std::move(fn));
}

void Engine::schedule_after(SimTime delay, UniqueFunction fn) {
  if (delay < 0) delay = 0;
  const OwnerId exec = exec_owner_here();
  push_local(now() + delay, next_key(current_owner()), exec, std::move(fn));
}

void Engine::schedule_on(OwnerId dest, SimTime t, UniqueFunction fn) {
  assert(dest >= 0 && dest < static_cast<OwnerId>(owners_));
  const OwnerId src = current_owner();
  const EventKey key = next_key(src);
  // Cross-owner effects scheduled during a run must respect the
  // conservative lookahead window; the WAN latency floor guarantees
  // this for every network path. (Setup-time scheduling is exempt: it
  // all lands before the first epoch floor is computed.)
  assert(src >= static_cast<OwnerId>(owners_) || dest == src || t >= now() + lookahead_);
  const int dp = partition_of(dest);
  if (g_cur_part >= 0 && dp != g_cur_part) {
    mail_[static_cast<std::size_t>(g_cur_part) * static_cast<std::size_t>(partitions_) +
          static_cast<std::size_t>(dp)]
        .push_back(Staged{t, key, dest, std::move(fn)});
  } else {
    parts_[static_cast<std::size_t>(dp)].queue.push(t, key, dest, std::move(fn));
  }
}

void Engine::schedule_resume(SimTime t, std::coroutine_handle<> h) {
  assert(t >= now() && "cannot schedule an event in the simulated past");
  const OwnerId exec = exec_owner_here();
  parts_[static_cast<std::size_t>(partition_of(exec))].queue.push_resume(
      t, next_key(current_owner()), exec, h);
}

void Engine::schedule_resume_after(SimTime delay, std::coroutine_handle<> h) {
  if (delay < 0) delay = 0;
  const OwnerId exec = exec_owner_here();
  parts_[static_cast<std::size_t>(partition_of(exec))].queue.push_resume(
      now() + delay, next_key(current_owner()), exec, h);
}

void Engine::spawn(Task<void> task) { spawn_on(exec_owner_here(), std::move(task)); }

void Engine::spawn_on(OwnerId dest, Task<void> task) {
  assert(dest >= 0 && dest < static_cast<OwnerId>(owners_));
  // During a run, spawns are owner-local (handlers spawn onto their own
  // owner); cross-owner placement is a setup-time operation. This keeps
  // the per-owner task counters partition-confined.
  assert(g_cur_part < 0 || dest == g_cur_owner);
  const std::uint64_t nth = ++owner_tasks_spawned_[static_cast<std::size_t>(dest)];
  if (trace::Recorder* rec = tracer_for(dest)) {
    rec->instant(trace::Category::Sim, "task.spawn", -1, nth);
  }
  // The Task is move-only; UniqueFunction supports move-only captures.
  // Starting the wrapper here (inside the queued event) makes the body's
  // first instructions run at the scheduled time, not at spawn time.
  auto start = [this, t = std::move(task)]() mutable {
    run_detached(this, std::move(t));
  };
  static_assert(UniqueFunction::stores_inline<decltype(start)>,
                "the spawn starter must fit the event queue's inline storage");
  push_local(now(), next_key(current_owner()), dest, std::move(start));
}

void Engine::note_task_finished() {
  const OwnerId o = exec_owner_here();
  const std::uint64_t nth = ++owner_tasks_finished_[static_cast<std::size_t>(o)];
  if (trace::Recorder* rec = tracer()) {
    rec->instant(trace::Category::Sim, "task.finish", -1, nth);
  }
}

trace::Recorder* Engine::tracer() const { return tracer_for(exec_owner_here()); }

void Engine::attach_trace(trace::Session* s) {
  session_ = s;
  tracer_single_ = s ? s->recorder() : nullptr;
  tracers_.clear();
  if (s && s->sharded()) {
    tracers_.resize(static_cast<std::size_t>(owners_));
    for (int o = 0; o < owners_; ++o) {
      tracers_[static_cast<std::size_t>(o)] = s->recorder_shard(o);
    }
    tracer_single_ = nullptr;
  }
}

void Engine::dispatch(int pidx, EventQueue::Event e) {
  Partition& p = parts_[static_cast<std::size_t>(pidx)];
  g_cur_part = pidx;
  g_cur_owner = e.exec_owner;
  p.now = e.time;
  // Lamport max-update: everything this dispatch schedules must key
  // strictly after the event itself, whichever owner scheduled it.
  std::uint64_t& lam = lamport_[static_cast<std::size_t>(e.exec_owner)];
  if (e.key.lamport > lam) lam = e.key.lamport;
  if (trace::Recorder* rec = tracer_for(e.exec_owner)) {
    rec->set_time(p.now);
    if (rec->engine_events()) {
      rec->instant(trace::Category::Sim, e.resume ? "engine.resume" : "engine.event", -1,
                   e.key.lamport);
    }
  }
  // FNV-1a over the canonical (time, lamport, owner) triple, into the
  // executing owner's accumulator: the fold of the accumulators (see
  // trace_hash()) is partition- and thread-independent by construction.
  std::uint64_t& h = hash_[static_cast<std::size_t>(e.exec_owner)];
  fnv_mix(h, static_cast<std::uint64_t>(e.time));
  fnv_mix(h, e.key.lamport);
  fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.key.owner)));
  ++p.events;
  ++owner_events_[static_cast<std::size_t>(e.exec_owner)];
  e.run();
}

std::uint64_t Engine::run() {
  return partitions_ == 1 ? run_sequential() : run_partitioned();
}

std::uint64_t Engine::run_sequential() {
  stopped_ = false;
  g_current_engine = this;
  Partition& p = parts_[0];
  std::uint64_t n = 0;
  while (!p.queue.empty() && !stopped_) {
    dispatch(0, p.queue.pop());
    ++n;
  }
  now_ = p.now;
  g_cur_part = -1;
  g_cur_owner = -1;
  return n;
}

void Engine::process_epoch(int pidx, SimTime horizon) {
  EventQueue& q = parts_[static_cast<std::size_t>(pidx)].queue;
  // Strictly below the horizon: an event exactly at F + lookahead could
  // still be preceded by a cross-partition arrival at that same time,
  // so it waits for the next epoch.
  while (!q.empty() && q.next_time() < horizon) {
    dispatch(pidx, q.pop());
  }
}

void Engine::drain_mail(int pidx) {
  EventQueue& q = parts_[static_cast<std::size_t>(pidx)].queue;
  for (int src = 0; src < partitions_; ++src) {
    std::vector<Staged>& box =
        mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(partitions_) +
              static_cast<std::size_t>(pidx)];
    for (Staged& s : box) {
      q.push(s.time, s.key, s.exec_owner, std::move(s.fn));
    }
    box.clear();
  }
}

int Engine::resolve_threads() const {
  int t = threads_cfg_;
  if (t <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw > 0 ? static_cast<int>(hw) : 1;
  }
  return std::clamp(t, 1, partitions_);
}

std::uint64_t Engine::run_partitioned() {
  // A traced partitioned run needs per-owner recorder shards; a single
  // shared recorder would race. (An untraced session has neither.)
  assert(tracer_single_ == nullptr &&
         "partitioned runs require an owner-sharded trace session");
  const int P = partitions_;
  const int T = resolve_threads();
  std::uint64_t before = 0;
  for (const Partition& p : parts_) before += p.events;

  SimTime floor = kNever;
  for (const Partition& p : parts_) {
    if (!p.queue.empty()) floor = std::min(floor, p.queue.next_time());
  }
  if (floor == kNever) return 0;
  SimTime horizon = floor + lookahead_;
  epochs_ = 1;
  bool done = false;

  std::barrier bar(T);
  // Host telemetry: accumulate per-thread wall time spent waiting at
  // the epoch barrier (the partitioned engine's idle/imbalance signal).
  // Pure wall-clock accounting into the thread's own ring — no
  // simulated state is read or written, so the merge stays canonical.
  telemetry::Collector* tc = telemetry::Collector::active();
  auto worker = [&](int tid) {
    g_current_engine = this;
    telemetry::ThreadRing* tr = tc ? &tc->ring() : nullptr;
    auto barrier_wait = [&] {
      if (tr) {
        const std::int64_t w0 = telemetry::now_ns();
        bar.arrive_and_wait();
        tr->add(telemetry::kBarrierWaitNs,
                static_cast<std::uint64_t>(telemetry::now_ns() - w0));
        tr->add(telemetry::kBarrierWaits, 1);
      } else {
        bar.arrive_and_wait();
      }
    };
    for (;;) {
      for (int p = tid; p < P; p += T) process_epoch(p, horizon);
      g_cur_part = -1;
      g_cur_owner = -1;
      barrier_wait();
      // Mailbox slot (src, dst) was written by src's thread before the
      // barrier; dst's thread owns it now. Staged events carry their
      // canonical keys, so a plain key-ordered insert IS the
      // deterministic merge.
      for (int p = tid; p < P; p += T) drain_mail(p);
      barrier_wait();
      if (tid == 0) {
        SimTime f = kNever;
        for (const Partition& pp : parts_) {
          if (!pp.queue.empty()) f = std::min(f, pp.queue.next_time());
        }
        if (f == kNever) {
          done = true;
        } else {
          horizon = f + lookahead_;
          ++epochs_;
        }
      }
      barrier_wait();
      if (done) return;
    }
  };

  if (T == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(T - 1));
    for (int t = 1; t < T; ++t) {
      pool.emplace_back([&worker, tc, t] {
        if (tc) tc->label_thread("sim-worker-" + std::to_string(t));
        worker(t);
      });
    }
    worker(0);
    for (std::thread& th : pool) th.join();
  }

  SimTime end = 0;
  std::uint64_t after = 0;
  for (const Partition& p : parts_) {
    end = std::max(end, p.now);
    after += p.events;
  }
  now_ = end;
  g_cur_part = -1;
  g_cur_owner = -1;
  return after - before;
}

bool Engine::run_until(SimTime t) {
  assert(partitions_ == 1 && "run_until is sequential-only");
  stopped_ = false;
  g_current_engine = this;
  Partition& p = parts_[0];
  while (!p.queue.empty() && p.queue.next_time() <= t) {
    dispatch(0, p.queue.pop());
    if (stopped_) {
      g_cur_part = -1;
      g_cur_owner = -1;
      return false;
    }
  }
  if (p.now < t) p.now = t;
  now_ = p.now;
  g_cur_part = -1;
  g_cur_owner = -1;
  return true;
}

std::uint64_t Engine::events_processed() const {
  std::uint64_t n = 0;
  for (const Partition& p : parts_) n += p.events;
  return n;
}

std::size_t Engine::pending_events() const {
  std::size_t n = 0;
  for (const Partition& p : parts_) n += p.queue.size();
  for (const auto& box : mail_) n += box.size();
  return n;
}

std::uint64_t Engine::tasks_spawned() const {
  std::uint64_t n = 0;
  for (std::uint64_t v : owner_tasks_spawned_) n += v;
  return n;
}

std::uint64_t Engine::tasks_finished() const {
  std::uint64_t n = 0;
  for (std::uint64_t v : owner_tasks_finished_) n += v;
  return n;
}

std::uint64_t Engine::trace_hash() const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t oh : hash_) fnv_mix(h, oh);
  return h;
}

void publish_metrics(const Engine& eng, trace::Metrics& m) {
  *m.counter("sim/events") = eng.events_processed();
  *m.counter("sim/tasks.spawned") = eng.tasks_spawned();
  *m.counter("sim/tasks.finished") = eng.tasks_finished();
  *m.counter("sim/time_ns") = static_cast<std::uint64_t>(eng.now());
  *m.counter("sim/partitions") = static_cast<std::uint64_t>(eng.partitions());
  *m.counter("sim/epochs") = eng.epochs();
}

}  // namespace alb::sim
