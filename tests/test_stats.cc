/** @file Unit tests for statistics accumulators. */

#include <gtest/gtest.h>

#include "util/stats.hh"

namespace ccsim {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook data set
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues)
{
    RunningStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), -3.0);
    EXPECT_EQ(s.max(), 3.0);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStats, StableUnderOffset)
{
    // Welford should not lose precision with a large constant offset.
    RunningStats s;
    const double offset = 1e9;
    for (double x : {1.0, 2.0, 3.0})
        s.add(offset + x);
    EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-6);
}

} // namespace
} // namespace ccsim
