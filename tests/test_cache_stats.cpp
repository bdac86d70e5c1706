/**
 * @file
 * Edge-case tests for CacheStats' derived metrics: a run with no
 * references must yield clean zeros, with no NaN from 0/0. (The
 * all-cold warm-start discount is pinned by
 * Cache.RepeatedTraceSecondPassHasNoColdMisses.)
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cache/cache_stats.hh"
#include "mem/bus_model.hh"

using namespace occsim;

TEST(CacheStats, ZeroReferenceRunYieldsZeroRatiosNotNaN)
{
    const CacheStats stats(1, 4);

    EXPECT_EQ(stats.accesses(), 0u);
    EXPECT_EQ(stats.missRatio(), 0.0);
    EXPECT_EQ(stats.warmMissRatio(), 0.0);
    EXPECT_EQ(stats.trafficRatio(), 0.0);
    EXPECT_EQ(stats.warmTrafficRatio(), 0.0);
    EXPECT_EQ(stats.ifetchMissRatio(), 0.0);
    EXPECT_EQ(stats.totalTrafficRatio(), 0.0);
    const NibbleModeBus nibble;
    EXPECT_EQ(stats.scaledTrafficRatio(nibble), 0.0);
    EXPECT_EQ(stats.warmScaledTrafficRatio(nibble), 0.0);
    EXPECT_FALSE(std::isnan(stats.meanSubBlocksTouched()));
    EXPECT_FALSE(std::isnan(stats.neverReferencedFraction()));
}
