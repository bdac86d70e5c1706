/**
 * @file
 * Tests for CacheStats' derived figures: a run with no references
 * must yield clean zeros, with no NaN from 0/0, and the traffic and
 * eviction totals read off the burst and residency histograms must
 * equal the events recorded. (The all-cold warm-start discount is
 * pinned by Cache.RepeatedTraceSecondPassHasNoColdMisses.)
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cache/cache_stats.hh"
#include "mem/bus_model.hh"

using namespace occsim;

namespace {

/** Sum of the values recorded in @p dist, read bucket by bucket. */
std::uint64_t
histogramSum(const Distribution &dist)
{
    EXPECT_EQ(dist.overflow(), 0u);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < dist.numBuckets(); ++i)
        sum += i * dist.bucket(i);
    return sum;
}

/** wordsFetched, coldWordsFetched, bursts and evictions must be
 *  @p words, @p cold_words, @p bursts and @p evictions, and equal
 *  the sums and sample counts of the histograms they come from. */
void
expectDerivedTotals(const CacheStats &stats, std::uint64_t words,
                    std::uint64_t cold_words, std::uint64_t bursts,
                    std::uint64_t evictions)
{
    EXPECT_EQ(stats.wordsFetched(), words);
    EXPECT_EQ(stats.coldWordsFetched(), cold_words);
    EXPECT_EQ(stats.bursts(), bursts);
    EXPECT_EQ(stats.evictions(), evictions);
    EXPECT_EQ(stats.wordsFetched(), histogramSum(stats.burstWords()));
    EXPECT_EQ(stats.coldWordsFetched(),
              histogramSum(stats.coldBurstWords()));
    EXPECT_EQ(stats.bursts(), stats.burstWords().samples());
    EXPECT_EQ(stats.evictions(), stats.residencyTouched().samples());
}

} // namespace

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

TEST(CacheStats, TrafficAndEvictionTotalsAreTheHistogramSums)
{
    // 4 sub-blocks of 2 words: bursts of 0..8 words, residencies that
    // touched 0..4 sub-blocks.
    CacheStats stats(4, 8);
    stats.recordBurst(2, /*cold=*/true, 0);
    stats.recordBurst(8, /*cold=*/false, 2);
    stats.recordBurst(6, /*cold=*/true, 0);
    stats.recordPrefetch(2);
    stats.recordResidency(3);
    stats.recordResidency(0);
    stats.recordResidency(4);
    expectDerivedTotals(stats, 18, 8, 4, 3);
    EXPECT_EQ(stats.redundantWordsFetched(), 2u);
    EXPECT_EQ(stats.prefetchWords(), 2u);

    CacheStats other(4, 8);
    other.recordBurst(4, /*cold=*/true, 1);
    other.recordPrefetch(2);
    other.recordResidency(1);
    expectDerivedTotals(other, 6, 4, 2, 1);

    stats.mergeFrom(other);
    expectDerivedTotals(stats, 24, 12, 6, 4);

    stats.reset();
    expectDerivedTotals(stats, 0, 0, 0, 0);
}
