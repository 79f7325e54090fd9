#pragma once

#include "common.hpp"

namespace perfbench {

/// kernels, messaging, partitioned: registry runners called in-process.
void run_sim_workload(const Args& args, Record& rec);
/// The set-up a sim workload does before its first simulation (scenario
/// load, registry lookup, job list). Spawned alone for setup_s.
void sim_setup_only(const Args& args);
/// serve: the real alb-serve binary as a child process.
void run_serve_workload(const Args& args, Record& rec);

bool is_sim_workload(const std::string& name);

}  // namespace perfbench
