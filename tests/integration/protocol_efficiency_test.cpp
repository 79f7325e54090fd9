// Protocol-efficiency contract of the rotating sequencer.
//
// Ordering one write costs at most one revolution of the ring: kick
// hops to the parked token plus token hops back, one WAN control
// message per cluster. So WAN control traffic must stay within a small
// constant of `orca/seq.issued` x clusters for every app that orders its
// writes through the rotating token, clean, under the preset fault plan
// and on the partitioned engine. A kick that outlives the demand it was
// sent for breaks this bound by orders of magnitude: before superseded
// kicks were retired, ACP orig at 2x2 sent 131 WAN control messages per
// issued sequence number per cluster.

#include <gtest/gtest.h>

#include <string>

#include "apps/app.hpp"
#include "scenario/scenario.hpp"

namespace alb::apps {
namespace {

// The measured worst case is ASP orig at 2x2, at 1.5.
constexpr double kRevolutionsPerSeq = 4.0;

// The registry runs whose writes go through the rotating sequencer (ASP
// opt migrates its sequencer; the other apps issue no sequence numbers).
struct Case {
  const char* app;
  bool optimized;
};
constexpr Case kRotating[] = {{"ASP", false}, {"IDA*", false}, {"IDA*", true}, {"ACP", false}};

AppResult run(const Case& c, AppConfig cfg) {
  cfg.optimized = c.optimized;
  for (const AppEntry& e : registry()) {
    if (e.name == c.app) return e.run(cfg);
  }
  ADD_FAILURE() << c.app << " is not in the registry";
  return {};
}

AppConfig geometry(const char* scenario, int clusters, int per) {
  AppConfig cfg = scenario::load(scenario).base;
  cfg.clusters = clusters;
  cfg.procs_per_cluster = per;
  return cfg;
}

std::uint64_t counter(const AppResult& r, const char* name) {
  return static_cast<std::uint64_t>(r.stats.value(name));
}

void expect_efficient(const AppResult& r, int clusters, const std::string& what) {
  ASSERT_EQ(r.status, AppResult::RunStatus::Ok) << what << ": " << r.error;
  const std::uint64_t issued = counter(r, "orca/seq.issued");
  const std::uint64_t wan_control = counter(r, "net/wan.control.msgs");
  const std::uint64_t passes = counter(r, "orca/seq.token_passes");
  const std::uint64_t kicks = counter(r, "orca/seq.kicks");
  ASSERT_GT(issued, 0u) << what;
  ASSERT_GT(passes, 0u) << what << ": not ordered by the rotating token";
  const double bound = kRevolutionsPerSeq * static_cast<double>(issued * clusters);
  EXPECT_LE(static_cast<double>(wan_control), bound)
      << what << ": " << wan_control << " WAN control messages for " << issued
      << " sequence numbers";
  EXPECT_LE(static_cast<double>(passes + kicks), bound)
      << what << ": " << passes << " token hops + " << kicks << " kick hops";
  // Every token and kick hop crosses the WAN as a control message.
  EXPECT_LE(passes + kicks, wan_control) << what;
  EXPECT_LE(counter(r, "orca/seq.kicks_retired"), kicks) << what;
}

TEST(ProtocolEfficiency, RotatingSequencerAt2x2) {
  for (const Case& c : kRotating) {
    expect_efficient(run(c, geometry("das", 2, 2)), 2,
                     std::string(c.app) + (c.optimized ? "/opt" : "/orig") + "@2x2");
  }
}

TEST(ProtocolEfficiency, RotatingSequencerAt4x15AndPartitioned) {
  for (const Case& c : kRotating) {
    const std::string what = std::string(c.app) + (c.optimized ? "/opt" : "/orig") + "@4x15";
    AppConfig cfg = geometry("das", 4, 15);
    const AppResult seq = run(c, cfg);
    expect_efficient(seq, 4, what);
    cfg.partitions = 4;
    const AppResult part = run(c, cfg);
    expect_efficient(part, 4, what + "/P4");
    // The counters are kept per cluster, so they do not depend on the
    // partition count.
    for (const char* name : {"orca/seq.token_passes", "orca/seq.kicks", "orca/seq.kicks_retired"}) {
      EXPECT_EQ(counter(part, name), counter(seq, name)) << what << "/P4: " << name;
    }
  }
}

TEST(ProtocolEfficiency, RotatingSequencerUnderFaultPreset) {
  for (const Case& c : kRotating) {
    expect_efficient(run(c, scenario::load("faults-preset").base), 4,
                     std::string(c.app) + (c.optimized ? "/opt" : "/orig") + "@faults-preset");
  }
}

}  // namespace
}  // namespace alb::apps
