// Boundary-exchange policies (SOR, §4.8).

#include <gtest/gtest.h>

#include "core/relaxation_policy.hpp"

namespace alb::wide {
namespace {

TEST(ExchangePolicy, FullAlwaysExchanges) {
  FullExchange full;
  for (int it = 0; it < 10; ++it) EXPECT_TRUE(full.exchange_intercluster(it));
  EXPECT_STREQ(full.name(), "full");
}

TEST(ExchangePolicy, ChaoticKeepsOneInPeriod) {
  ChaoticRelaxation c3(3);
  int kept = 0;
  for (int it = 0; it < 30; ++it) {
    if (c3.exchange_intercluster(it)) ++kept;
  }
  EXPECT_EQ(kept, 10);
  EXPECT_TRUE(c3.exchange_intercluster(0));   // iteration 0 always syncs
  EXPECT_FALSE(c3.exchange_intercluster(1));
  EXPECT_FALSE(c3.exchange_intercluster(2));
  EXPECT_TRUE(c3.exchange_intercluster(3));
}

}  // namespace
}  // namespace alb::wide
