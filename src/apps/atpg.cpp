#include "apps/atpg.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/cluster_reduce.hpp"
#include "sim/rng.hpp"

namespace alb::apps {

namespace {

enum class GateOp : std::uint8_t { And, Or, Xor, Not };

/// Gate values are simulated 64 input vectors at a time, one bit lane
/// per vector. Value slots [0, kPiSlots) hold the primary inputs (input
/// i reads bit i % 64 of a vector); slot kPiSlots + i holds gate i.
constexpr std::size_t kPiSlots = 64;
constexpr int kLanes = 64;

struct Gate {
  GateOp op;
  std::uint32_t a;  // value slot of the first input
  std::uint32_t b;  // value slot of the second input (unused for Not)
};

/// A random layered combinational circuit. Indices: gate i may read
/// primary inputs or gates < i; the last kOutputs gates are outputs.
struct Circuit {
  std::vector<Gate> gates;
  static constexpr std::size_t kOutputs = 16;

  static Circuit generate(int num_gates, int num_pi, std::uint64_t seed) {
    Circuit c;
    c.gates.reserve(static_cast<std::size_t>(num_gates));
    sim::Rng rng(seed);
    for (int i = 0; i < num_gates; ++i) {
      auto pick_input = [&](int hi) -> std::uint32_t {
        // Bias toward recent gates to get deep propagation paths.
        if (hi == 0 || rng.uniform() < 0.25) {
          return static_cast<std::uint32_t>(rng.uniform_int(0, num_pi - 1) % kPiSlots);
        }
        int lo = hi > 24 ? hi - 24 : 0;
        return static_cast<std::uint32_t>(kPiSlots + rng.uniform_int(lo, hi - 1));
      };
      Gate g;
      g.op = static_cast<GateOp>(rng.uniform_int(0, 3));
      g.a = pick_input(i);
      g.b = g.op == GateOp::Not ? kPiSlots : pick_input(i);
      c.gates.push_back(g);
    }
    return c;
  }

  std::size_t slots() const { return kPiSlots + gates.size(); }
  /// First output slot (a circuit smaller than kOutputs has none).
  std::size_t first_output() const {
    return slots() - (gates.size() >= kOutputs ? kOutputs : 0);
  }

  /// Evaluates gates [from, end) into `value`, whose lower slots are set.
  void evaluate(std::uint64_t* value, std::size_t from) const {
    for (std::size_t i = from; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      const std::uint64_t a = value[g.a];
      const std::uint64_t b = value[g.b];
      std::uint64_t v = 0;
      switch (g.op) {
        case GateOp::And: v = a & b; break;
        case GateOp::Or: v = a | b; break;
        case GateOp::Xor: v = a ^ b; break;
        case GateOp::Not: v = ~a; break;
      }
      value[kPiSlots + i] = v;
    }
  }

  /// The output hash of one lane: what a one-vector evaluation returns.
  std::uint64_t output_hash(const std::uint64_t* value, int lane) const {
    std::uint64_t h = kHashSeed;
    for (std::size_t s = first_output(); s < slots(); ++s) {
      h = hash_mix(h, (value[s] >> lane) & 1);
    }
    return h;
  }
};

/// Transposes up to 64 input vectors into the primary-input slots: bit
/// `lane` of slot i is bit i of vector `lane`.
void load_inputs(const std::uint64_t* vectors, int lanes, std::uint64_t* value) {
  for (std::size_t i = 0; i < kPiSlots; ++i) {
    std::uint64_t w = 0;
    for (int lane = 0; lane < lanes; ++lane) w |= ((vectors[lane] >> i) & 1) << lane;
    value[i] = w;
  }
}

struct FaultResult {
  bool detected = false;
  long long evals = 0;
};

/// Tries to find a test pattern for (gate, stuck_value): pseudo-random
/// vectors are tried in order until the good and faulty circuits'
/// output hashes differ. The work charged is one good and one faulty
/// evaluation of the whole circuit per vector tried, as if the vectors
/// were simulated one at a time.
FaultResult test_fault(const Circuit& c, int gate, bool stuck, int max_vectors,
                       std::uint64_t seed) {
  FaultResult r;
  sim::Rng rng(seed ^ (static_cast<std::uint64_t>(gate) * 2 + (stuck ? 1 : 0)));
  const long long evals_per_vector = 2 * static_cast<long long>(c.gates.size());
  thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(2 * c.slots());
  std::uint64_t* good = scratch.data();
  std::uint64_t* bad = good + c.slots();
  const std::size_t fault_slot = kPiSlots + static_cast<std::size_t>(gate);
  for (int base = 0; base < max_vectors; base += kLanes) {
    const int lanes = std::min(kLanes, max_vectors - base);
    std::uint64_t vectors[kLanes];
    for (int lane = 0; lane < lanes; ++lane) vectors[lane] = rng.next_u64();
    load_inputs(vectors, lanes, good);
    c.evaluate(good, 0);
    // Below the fault the faulty circuit agrees with the good one.
    std::copy(good, good + fault_slot, bad);
    bad[fault_slot] = stuck ? ~0ull : 0;
    c.evaluate(bad, static_cast<std::size_t>(gate) + 1);
    std::uint64_t differ = 0;
    for (std::size_t s = c.first_output(); s < c.slots(); ++s) differ |= good[s] ^ bad[s];
    if (lanes < kLanes) differ &= (1ull << lanes) - 1;
    for (; differ != 0; differ &= differ - 1) {
      const int lane = std::countr_zero(differ);
      if (c.output_hash(good, lane) != c.output_hash(bad, lane)) {
        r.detected = true;
        r.evals = (base + lane + 1) * evals_per_vector;
        return r;
      }
    }
  }
  r.evals = std::max(max_vectors, 0) * evals_per_vector;
  return r;
}

struct SharedStats {
  long long patterns = 0;
  long long detected = 0;
  long long untestable = 0;
};

AtpgOutcome combine(const AtpgOutcome& a, const AtpgOutcome& b) {
  return AtpgOutcome{a.patterns_found + b.patterns_found,
                     a.faults_detected + b.faults_detected,
                     a.faults_untestable + b.faults_untestable};
}

}  // namespace

AtpgOutcome atpg_reference(const AtpgParams& params, std::uint64_t seed) {
  Circuit c = Circuit::generate(params.gates, params.primary_inputs, seed);
  AtpgOutcome out;
  for (int g = 0; g < params.gates; ++g) {
    for (int stuck = 0; stuck < 2; ++stuck) {
      FaultResult r = test_fault(c, g, stuck != 0, params.max_vectors_per_fault, seed);
      out.gate_evals += r.evals;
      if (r.detected) {
        ++out.patterns_found;
        ++out.faults_detected;
      } else {
        ++out.faults_untestable;
      }
    }
  }
  return out;
}

std::uint64_t atpg_checksum(const AtpgOutcome& o) {
  std::uint64_t h = kHashSeed;
  h = hash_mix(h, static_cast<std::uint64_t>(o.patterns_found));
  h = hash_mix(h, static_cast<std::uint64_t>(o.faults_detected));
  h = hash_mix(h, static_cast<std::uint64_t>(o.faults_untestable));
  return h;
}

AppResult run_atpg(const AppConfig& cfg, const AtpgParams& params) {
  Harness h(cfg);
  Circuit circuit = Circuit::generate(params.gates, params.primary_inputs, cfg.seed);
  auto stats = orca::create_remote<SharedStats>(h.rt, 0, {});

  const int P = cfg.total_procs();
  AppResult result;
  std::uint64_t seed = cfg.seed;
  const AtpgParams prm = params;
  AtpgOutcome root_total;

  result = h.finish([&, seed, prm](orca::Proc& p) -> sim::Task<void> {
    // Static partition: fault f handled by process f mod P (faults are
    // 2*gates: (gate, stuck-at)).
    AtpgOutcome local;
    const int num_faults = prm.gates * 2;
    for (int f = p.rank; f < num_faults; f += P) {
      const int gate = f / 2;
      const bool stuck = (f % 2) != 0;
      FaultResult r = test_fault(circuit, gate, stuck, prm.max_vectors_per_fault, seed);
      co_await p.compute(r.evals * prm.ns_per_gate_eval);
      if (r.detected) {
        ++local.patterns_found;
        ++local.faults_detected;
        if (!cfg.optimized) {
          // Original: one RPC per generated pattern to the shared
          // statistics object.
          co_await stats.invoke_void(p, 16, 8, [](SharedStats& s) {
            ++s.patterns;
            ++s.detected;
          });
        }
      } else {
        ++local.faults_untestable;
        if (!cfg.optimized) {
          co_await stats.invoke_void(p, 16, 8, [](SharedStats& s) { ++s.untestable; });
        }
      }
    }
    if (cfg.optimized) {
      // Optimized: a single hierarchical reduction at the end.
      AtpgOutcome total = co_await wide::cluster_reduce<AtpgOutcome>(
          h.rt, p, 500, local, 24, [](AtpgOutcome&& a, const AtpgOutcome& b) {
            return combine(a, b);
          });
      if (p.rank == 0) root_total = total;
    }
  });

  AtpgOutcome out;
  if (cfg.optimized) {
    out = root_total;
  } else {
    const SharedStats& s = stats.state();
    out = AtpgOutcome{s.patterns, s.detected, s.untestable};
  }
  result.checksum = atpg_checksum(out);
  result.metrics["patterns"] = static_cast<double>(out.patterns_found);
  result.metrics["untestable"] = static_cast<double>(out.faults_untestable);
  return result;
}

}  // namespace alb::apps
