#pragma once
// Deterministic alb-serve request generator for the serve workload.
//
// The mix is fixed: each class below contributes the same number of
// request lines for every seed, so the cold phase simulates the same
// amount of work on every seed. The seed chooses each line's app seed
// and the order of the lines. Only apps whose host work does not depend
// on the instance (SOR, Water, RA) are used, on small topologies, so
// every request is cheap.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ServeRequest {
  std::string scenario;    ///< shipped scenario name
  std::string app;
  int opt = -1;            ///< -1: the scenario's [grid] chooses
  int clusters = 0;        ///< 0: the scenario's
  int per = 0;             ///< 0: the scenario's
  std::uint64_t seed = 0;  ///< 0: the scenario's
  int runs = 1;            ///< expanded runs of the scenario

  /// The request line alb-serve reads.
  std::string line() const;
};

struct ServePlan {
  std::vector<ServeRequest> requests;
  /// How many times the warm phase replays the list.
  int replay = 1;

  std::size_t expanded() const;
  std::vector<std::string> scenarios() const;
};

ServePlan generate_requests(std::uint64_t seed);

}  // namespace perfbench
