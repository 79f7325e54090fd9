#include "apps/ra.hpp"

#include <array>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cluster_reduce.hpp"

namespace alb::apps {

namespace {

constexpr int kPits = 12;
using Board = std::array<std::int8_t, kPits>;

enum Value : std::int8_t { kUnknown = 0, kWin = 1, kLoss = 2 };
// kUnknown at fixpoint == draw.

// Update messages: one update, or a per-destination-node batch.
constexpr int kTagUpdate = 9000;
constexpr int kTagUpdateBatch = 9003;
constexpr std::size_t kUpdateBytes = 8;

/// ways(s, p): distributions of s stones over p pits = C(s+p-1, p-1).
struct Combinatorics {
  // binom[n][k] for n <= stones + kPits.
  std::vector<std::vector<long long>> binom;

  explicit Combinatorics(int max_stones) {
    const int n = max_stones + kPits + 1;
    binom.assign(static_cast<std::size_t>(n), std::vector<long long>(static_cast<std::size_t>(n), 0));
    for (int i = 0; i < n; ++i) {
      binom[static_cast<std::size_t>(i)][0] = 1;
      for (int j = 1; j <= i; ++j) {
        binom[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            binom[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)] +
            binom[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j)];
      }
    }
  }

  long long ways(int stones, int pits) const {
    if (pits == 0) return stones == 0 ? 1 : 0;
    return binom[static_cast<std::size_t>(stones + pits - 1)]
                [static_cast<std::size_t>(pits - 1)];
  }

  long long positions(int stones) const { return ways(stones, kPits); }

  /// Lexicographic rank of `b` among boards with `stones` stones.
  std::uint32_t rank(const Board& b, int stones) const {
    long long r = 0;
    int rem = stones;
    for (int i = 0; i < kPits - 1; ++i) {
      for (int v = 0; v < b[static_cast<std::size_t>(i)]; ++v) {
        r += ways(rem - v, kPits - 1 - i);
      }
      rem -= b[static_cast<std::size_t>(i)];
    }
    return static_cast<std::uint32_t>(r);
  }

  Board unrank(std::uint32_t index, int stones) const {
    Board b{};
    long long r = index;
    int rem = stones;
    for (int i = 0; i < kPits - 1; ++i) {
      int v = 0;
      for (;; ++v) {
        long long w = ways(rem - v, kPits - 1 - i);
        if (r < w) break;
        r -= w;
      }
      b[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(v);
      rem -= v;
    }
    b[kPits - 1] = static_cast<std::int8_t>(rem);
    return b;
  }
};

struct Successor {
  bool capture;
  int stones_after;      // == k when !capture
  std::uint32_t index;   // in the stones_after database
};

/// The legal successors of one position, in move (pit) order: at most
/// one per own pit, so a fixed array.
struct Successors {
  std::array<Successor, 6> items{};
  int count = 0;

  const Successor* begin() const { return items.data(); }
  const Successor* end() const { return items.data() + count; }
};

bool mover_has_stones(const Board& b) {
  for (int i = 0; i < 6; ++i) {
    if (b[static_cast<std::size_t>(i)] > 0) return true;
  }
  return false;
}

Board flip(const Board& b) {
  Board f{};
  for (int i = 0; i < kPits; ++i) f[static_cast<std::size_t>(i)] = b[(i + 6) % kPits];
  return f;
}

/// All legal successors of `b` (k stones), ranked in their databases.
Successors successors(const Combinatorics& comb, const Board& b, int k) {
  Successors out;
  for (int pit = 0; pit < 6; ++pit) {
    const int c = b[static_cast<std::size_t>(pit)];
    if (c == 0) continue;
    Board n = b;
    n[static_cast<std::size_t>(pit)] = 0;
    for (int j = 1; j <= c; ++j) {
      ++n[static_cast<std::size_t>((pit + j) % kPits)];
    }
    const int last = (pit + c) % kPits;
    int stones_after = k;
    if (last >= 6 && (n[static_cast<std::size_t>(last)] == 2 ||
                      n[static_cast<std::size_t>(last)] == 3)) {
      stones_after = k - n[static_cast<std::size_t>(last)];
      n[static_cast<std::size_t>(last)] = 0;
    }
    Board next = flip(n);
    out.items[static_cast<std::size_t>(out.count++)] =
        Successor{stones_after != k, stones_after, comb.rank(next, stones_after)};
  }
  return out;
}

using Database = std::vector<std::int8_t>;
/// The databases of 0 .. k-1 stones, indexed by stone count.
using SmallerDatabases = std::vector<std::shared_ptr<const Database>>;

/// Sequential backward induction for one database, given all smaller
/// ones. Returns the value array. Also used for the reference run.
Database solve_sequential(const Combinatorics& comb, int k, const SmallerDatabases& smaller) {
  const auto n = static_cast<std::size_t>(comb.positions(k));
  std::vector<std::int8_t> value(n, kUnknown);
  std::vector<std::int16_t> pending(n, 0);
  std::vector<char> blocked(n, 0);  // has a known non-WIN successor
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::deque<std::uint32_t> queue;

  for (std::uint32_t idx = 0; idx < n; ++idx) {
    Board b = comb.unrank(idx, k);
    if (!mover_has_stones(b)) {
      value[idx] = kLoss;
      queue.push_back(idx);
      continue;
    }
    bool win = false;
    int within = 0;
    bool blk = false;
    for (const Successor& s : successors(comb, b, k)) {
      if (s.capture) {
        std::int8_t v = (*smaller[static_cast<std::size_t>(s.stones_after)])[s.index];
        if (v == kLoss) win = true;
        else if (v != kWin) blk = true;  // draw successor: cannot be LOSS
      } else {
        ++within;
        preds[s.index].push_back(idx);
      }
    }
    if (win) {
      value[idx] = kWin;
      queue.push_back(idx);
    } else {
      pending[idx] = static_cast<std::int16_t>(within);
      blocked[idx] = blk ? 1 : 0;
      if (within == 0 && !blk) {
        value[idx] = kLoss;
        queue.push_back(idx);
      }
    }
  }

  while (!queue.empty()) {
    std::uint32_t v = queue.front();
    queue.pop_front();
    const std::int8_t val = value[v];
    for (std::uint32_t q : preds[v]) {
      if (value[q] != kUnknown) continue;
      if (val == kLoss) {
        value[q] = kWin;
        queue.push_back(q);
      } else if (val == kWin) {
        if (--pending[q] == 0 && !blocked[q]) {
          value[q] = kLoss;
          queue.push_back(q);
        }
      }
    }
  }
  return value;
}

/// The databases of fewer than k stones. Each one is a pure function of
/// its stone count, so it is solved once per process and then shared,
/// immutable, by every later run on any thread (--jobs workers,
/// partition threads). `comb` must cover at least k - 1 stones.
SmallerDatabases smaller_databases(const Combinatorics& comb, int k) {
  static std::mutex mu;
  static SmallerDatabases memo;  // memo[s]: the s-stone database
  std::lock_guard<std::mutex> lock(mu);
  while (static_cast<int>(memo.size()) < k) {
    const int s = static_cast<int>(memo.size());
    memo.push_back(std::make_shared<const Database>(solve_sequential(comb, s, memo)));
  }
  return SmallerDatabases(memo.begin(), memo.begin() + k);
}

RaOutcome tally(const Database& value) {
  RaOutcome out;
  std::uint64_t h = kHashSeed;
  for (std::int8_t v : value) {
    if (v == kWin) ++out.wins;
    else if (v == kLoss) ++out.losses;
    else ++out.draws;
    h = hash_mix(h, static_cast<std::uint64_t>(v));
  }
  out.value_hash = h;
  return out;
}

}  // namespace

RaOutcome ra_reference(const RaParams& params) {
  Combinatorics comb(params.stones);
  return tally(solve_sequential(comb, params.stones, smaller_databases(comb, params.stones)));
}

std::uint64_t ra_checksum(const RaOutcome& o) {
  std::uint64_t h = o.value_hash;
  h = hash_mix(h, static_cast<std::uint64_t>(o.wins));
  h = hash_mix(h, static_cast<std::uint64_t>(o.losses));
  h = hash_mix(h, static_cast<std::uint64_t>(o.draws));
  return h;
}

AppResult run_ra(const AppConfig& app_cfg, const RaParams& params) {
  // The optimized program is the original one with per-cluster message
  // combining (§4.5) at the gateways, unless the config already chose a
  // threshold. Set on the network config, not cfg.combine_bytes, so the
  // adaptive engine does not count it as an explicit --combine-bytes.
  AppConfig cfg = app_cfg;
  if (cfg.optimized && cfg.combine_bytes < 0 && cfg.net_cfg.wan_transport.combine_bytes == 0) {
    cfg.net_cfg.wan_transport.combine_bytes = orca::coll::kDefaultCombineBytes;
  }
  Harness h(cfg);
  const int P = cfg.total_procs();
  const int k = params.stones;
  Combinatorics comb(k);
  const SmallerDatabases smaller = smaller_databases(comb, k);
  const auto n = static_cast<std::size_t>(comb.positions(k));
  const auto np = static_cast<std::size_t>(P);

  // Shared database state: partitioned by owner; each entry is touched
  // only by its owner process during the parallel phase.
  Database value(n, kUnknown);
  std::vector<std::int16_t> pending(n, 0);
  std::vector<char> blocked(n, 0);

  auto owner_of = [P](std::uint32_t idx) {
    return static_cast<int>((static_cast<std::uint64_t>(idx) * 2654435761ull) % P);
  };
  // Each owner's positions, ascending, and every position's slot in its
  // owner's list. Read-only once the processes start.
  std::vector<std::vector<std::uint32_t>> mine(np);
  std::vector<std::uint32_t> local(n);
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    auto& m = mine[static_cast<std::size_t>(owner_of(idx))];
    local[idx] = static_cast<std::uint32_t>(m.size());
    m.push_back(idx);
  }

  // Within-k edges discovered by the init scan. An edge (q -> v) is
  // found by q's owner but consumed by v's owner, so writing v's
  // predecessor list directly from the scan would be a cross-owner
  // write — racy under partitioned execution, and its ordering would
  // depend on how the scan coroutines interleave. Instead the writer
  // stages it in lane[writer * P + owner_of(v)], and after the barrier
  // each owner reads only its own column, in writer-rank order —
  // canonical for every partition and thread count.
  struct Edge {
    std::uint32_t pred;  // q: the position that must be re-examined
    std::uint32_t succ;  // v: the successor whose value determines it
  };
  std::vector<std::vector<Edge>> lanes(np * np);
  // Each owner's predecessor lists in CSR form: the predecessors of the
  // position in slot i of mine[owner] are flat[offsets[i] .. offsets[i+1]).
  struct Preds {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> flat;
  };
  std::vector<Preds> preds(np);

  struct Update {
    std::uint32_t pos;
    std::int8_t val;  // value of the successor that was determined
  };
  std::vector<std::deque<Update>> inbox(static_cast<std::size_t>(P));
  std::vector<long long> processed(static_cast<std::size_t>(P), 0);
  // Updates each rank has sent (itself included), for quiescence.
  std::vector<long long> sent(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    auto& q = inbox[static_cast<std::size_t>(r)];
    h.net.endpoint(r).set_handler(kTagUpdate, [&q](net::Message m) {
      q.push_back(net::payload_as<Update>(m));
    });
    h.net.endpoint(r).set_handler(kTagUpdateBatch, [&q](net::Message m) {
      for (const Update& u : net::payload_as<std::vector<Update>>(m)) q.push_back(u);
    });
  }
  // Both variants batch per destination node — the paper's baseline RA
  // already performed this classic message combining. outbox[src * P +
  // dst] is src's pending batch for dst, touched only by src.
  const auto node_batch = static_cast<std::size_t>(params.node_batch);
  std::vector<std::vector<Update>> outbox(node_batch > 1 ? static_cast<std::size_t>(P) * P : 0);

  AppResult result = h.finish([&, params](orca::Proc& p) -> sim::Task<void> {
    const auto me = static_cast<std::size_t>(p.rank);
    const std::vector<std::uint32_t>& my_positions = mine[me];
    const Preds& my_preds = preds[me];
    auto ship = [&](int dst) {
      auto& buf = outbox[static_cast<std::size_t>(p.rank) * P + static_cast<std::size_t>(dst)];
      if (buf.empty()) return;
      std::vector<Update> batch;
      batch.swap(buf);
      const auto members = static_cast<std::uint32_t>(batch.size());
      h.rt.send_data(p, dst, kTagUpdateBatch, members * kUpdateBytes,
                     net::make_payload<std::vector<Update>>(std::move(batch)), members);
    };
    auto send = [&](int dst, Update u) {
      ++sent[static_cast<std::size_t>(p.rank)];
      if (dst == p.rank) {
        inbox[static_cast<std::size_t>(dst)].push_back(u);
      } else if (node_batch <= 1) {
        h.rt.send_data(p, dst, kTagUpdate, kUpdateBytes, net::make_payload<Update>(u));
      } else {
        auto& buf = outbox[static_cast<std::size_t>(p.rank) * P + static_cast<std::size_t>(dst)];
        buf.push_back(u);
        if (buf.size() >= node_batch) ship(dst);
      }
    };
    // Emit the determination of `idx` (one of mine) to its
    // predecessors' owners.
    auto emit = [&](std::uint32_t idx) {
      const std::uint32_t slot = local[idx];
      for (std::uint32_t i = my_preds.offsets[slot]; i < my_preds.offsets[slot + 1]; ++i) {
        const std::uint32_t q = my_preds.flat[i];
        send(owner_of(q), Update{q, value[idx]});
      }
    };
    // Applies one update; returns any newly determined position.
    auto apply = [&](const Update& u) -> bool {
      if (value[u.pos] != kUnknown) return false;
      if (u.val == kLoss) {
        value[u.pos] = kWin;
        return true;
      }
      if (u.val == kWin) {
        if (--pending[u.pos] == 0 && !blocked[u.pos]) {
          value[u.pos] = kLoss;
          return true;
        }
      }
      return false;
    };

    // Initialization scan over my positions: generate successor lists,
    // determine immediate values, and stage every within-k edge
    // (idx -> s.index) in the lane from me to s.index's owner.
    long long scanned = 0;
    for (const std::uint32_t idx : my_positions) {
      Board b = comb.unrank(idx, k);
      if (!mover_has_stones(b)) {
        value[idx] = kLoss;
        continue;
      }
      bool win = false;
      int within = 0;
      bool blk = false;
      for (const Successor& s : successors(comb, b, k)) {
        if (s.capture) {
          std::int8_t v = (*smaller[static_cast<std::size_t>(s.stones_after)])[s.index];
          if (v == kLoss) win = true;
          else if (v != kWin) blk = true;
        } else {
          ++within;
          lanes[me * np + static_cast<std::size_t>(owner_of(s.index))].push_back(
              Edge{idx, s.index});
        }
      }
      if (win) {
        value[idx] = kWin;
      } else {
        pending[idx] = static_cast<std::int16_t>(within);
        blocked[idx] = blk ? 1 : 0;
        if (within == 0 && !blk) value[idx] = kLoss;
      }
      if (++scanned % 512 == 0) {
        co_await p.compute(512 * params.ns_per_position);
      }
    }
    co_await p.compute((scanned % 512) * params.ns_per_position);

    // All edge lanes must be complete before anyone reads them; the
    // barrier is the happens-before edge that publishes every rank's
    // staged writes.
    co_await h.rt.barrier(p);

    // Collect my positions' predecessor lists with a stable counting
    // pass over my lanes in writer-rank order, so each list reads
    // writer rank, then predecessor ascending, then move order however
    // the scan interleaved. Each lane is released once consumed.
    {
      Preds& out = preds[me];
      out.offsets.assign(my_positions.size() + 1, 0);
      for (std::size_t r = 0; r < np; ++r) {
        for (const Edge& e : lanes[r * np + me]) ++out.offsets[local[e.succ] + 1];
      }
      for (std::size_t i = 1; i < out.offsets.size(); ++i) out.offsets[i] += out.offsets[i - 1];
      out.flat.resize(out.offsets.back());
      std::vector<std::uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
      for (std::size_t r = 0; r < np; ++r) {
        std::vector<Edge>& lane = lanes[r * np + me];
        for (const Edge& e : lane) out.flat[cursor[local[e.succ]]++] = e.pred;
        std::vector<Edge>().swap(lane);
      }
    }

    // Seed propagation with my initially-determined positions.
    for (const std::uint32_t idx : my_positions) {
      if (value[idx] != kUnknown) emit(idx);
    }

    // Propagate until global quiescence.
    for (;;) {
      auto& q = inbox[static_cast<std::size_t>(p.rank)];
      while (!q.empty()) {
        std::size_t batch = std::min<std::size_t>(q.size(), 128);
        for (std::size_t i = 0; i < batch; ++i) {
          Update u = q.front();
          q.pop_front();
          ++processed[static_cast<std::size_t>(p.rank)];
          if (apply(u)) emit(u.pos);
        }
        co_await p.compute(static_cast<long long>(batch) * params.ns_per_update);
      }
      if (node_batch > 1) {
        for (int d = 0; d < P; ++d) ship(d);
      }
      co_await h.rt.barrier(p);
      struct Counts {
        long long sent;
        long long done;
      };
      Counts c = co_await wide::cluster_allreduce<Counts>(
          h.rt, p, 800,
          Counts{sent[static_cast<std::size_t>(p.rank)],
                 processed[static_cast<std::size_t>(p.rank)]},
          16, [](Counts&& a, const Counts& b) {
            return Counts{a.sent + b.sent, a.done + b.done};
          });
      if (c.sent == c.done) break;
    }
  });

  RaOutcome out = tally(value);
  result.checksum = ra_checksum(out);
  result.metrics["positions"] = static_cast<double>(n);
  result.metrics["wins"] = static_cast<double>(out.wins);
  result.metrics["losses"] = static_cast<double>(out.losses);
  result.metrics["draws"] = static_cast<double>(out.draws);
  return result;
}

}  // namespace alb::apps
