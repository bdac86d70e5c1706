/**
 * @file
 * Unit tests for the stats package: counters, formulas, registries,
 * and the Distribution histogram.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/distribution.hh"
#include "stats/stats.hh"

using namespace occsim;

TEST(Counter, IncrementAndReset)
{
    StatSet set("test");
    Counter counter(set, "hits", "number of hits");
    ++counter;
    counter += 5;
    EXPECT_EQ(counter.value(), 6u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Formula, EvaluatesLazily)
{
    StatSet set;
    Counter num(set, "num", "");
    Counter den(set, "den", "");
    Formula miss(set, "ratio", "", [&] {
        return ratio(num.value(), den.value());
    });
    EXPECT_DOUBLE_EQ(miss.value(), 0.0);
    num += 1;
    den += 4;
    EXPECT_DOUBLE_EQ(miss.value(), 0.25);
}

TEST(RatioHelper, DivisionByZeroIsZero)
{
    EXPECT_DOUBLE_EQ(ratio(std::uint64_t{5}, std::uint64_t{0}), 0.0);
    EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(std::uint64_t{1}, std::uint64_t{2}), 0.5);
}

TEST(StatSet, ResetAllAndDump)
{
    StatSet set("cache0");
    Counter a(set, "a", "first");
    Counter b(set, "b", "second");
    a += 3;
    b += 7;
    set.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);

    a += 42;
    std::ostringstream os;
    set.dump(os);
    EXPECT_NE(os.str().find("cache0"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    EXPECT_NE(os.str().find("first"), std::string::npos);
}

TEST(Distribution, BasicBuckets)
{
    Distribution dist("d", 4);
    dist.sample(0);
    dist.sample(1);
    dist.sample(1);
    dist.sample(3);
    EXPECT_EQ(dist.samples(), 4u);
    EXPECT_EQ(dist.bucket(0), 1u);
    EXPECT_EQ(dist.bucket(1), 2u);
    EXPECT_EQ(dist.bucket(2), 0u);
    EXPECT_EQ(dist.bucket(3), 1u);
    EXPECT_EQ(dist.overflow(), 0u);
    EXPECT_DOUBLE_EQ(dist.mean(), (0 + 1 + 1 + 3) / 4.0);
}

TEST(Distribution, OverflowBucket)
{
    Distribution dist("d", 2);
    dist.sample(5);
    dist.sample(100);
    EXPECT_EQ(dist.overflow(), 2u);
    EXPECT_EQ(dist.samples(), 2u);
    // Overflow samples count at numBuckets for the mean.
    EXPECT_DOUBLE_EQ(dist.mean(), 2.0);
}

TEST(Distribution, OverRangeSamplesLandInOverflowAndKeepSummaries)
{
    // In-range values 1, 2 (twice) and 3; then 4 (== numBuckets) once
    // and 9 twice, both over range. Overflow counts at numBuckets (4)
    // in the mean, sum and variance, lies above every in-range value
    // for the percentiles, and enters the CDF only at v >= 4.
    Distribution dist("d", 4);
    dist.sample(1);
    dist.sample(2, 2);
    dist.sample(3);
    dist.sample(4);
    dist.sample(9, 2);

    const auto check = [](const Distribution &d) {
        EXPECT_EQ(d.numBuckets(), 4u);
        EXPECT_EQ(d.bucket(3), 1u);
        EXPECT_EQ(d.overflow(), 3u);
        EXPECT_EQ(d.samples(), 7u);
        EXPECT_EQ(d.sum(), 1u + 2u * 2u + 3u + 3u * 4u);
        const double mu = 20.0 / 7.0;
        EXPECT_DOUBLE_EQ(d.mean(), mu);
        EXPECT_DOUBLE_EQ(d.variance(),
                         ((1 - mu) * (1 - mu) + 2 * (2 - mu) * (2 - mu) +
                          (3 - mu) * (3 - mu) + 3 * (4 - mu) * (4 - mu)) /
                             7.0);
        EXPECT_EQ(d.percentile(0.0), 1u);
        EXPECT_EQ(d.percentile(0.5), 2u);
        EXPECT_EQ(d.percentile(0.6), 3u);
        EXPECT_EQ(d.percentile(0.9), 4u) << "target inside overflow";
        EXPECT_EQ(d.percentile(1.0), 4u);
        EXPECT_DOUBLE_EQ(d.cdfAt(0), 0.0);
        EXPECT_DOUBLE_EQ(d.cdfAt(3), 4.0 / 7.0);
        EXPECT_DOUBLE_EQ(d.cdfAt(4), 1.0);
        EXPECT_DOUBLE_EQ(d.cdfAt(100), 1.0);
    };
    check(dist);

    // A merge into an empty histogram carries the overflow along.
    Distribution merged("m", 4);
    merged.mergeFrom(dist);
    check(merged);

    merged.reset();
    EXPECT_EQ(merged.overflow(), 0u);
    EXPECT_EQ(merged.samples(), 0u);
    EXPECT_EQ(merged.sum(), 0u);
    EXPECT_DOUBLE_EQ(merged.mean(), 0.0);
}

TEST(Distribution, WeightedSamples)
{
    Distribution dist("d", 8);
    dist.sample(2, 10);
    dist.sample(4, 10);
    EXPECT_EQ(dist.samples(), 20u);
    EXPECT_DOUBLE_EQ(dist.mean(), 3.0);
}

TEST(Distribution, Cdf)
{
    Distribution dist("d", 4);
    dist.sample(0);
    dist.sample(1);
    dist.sample(2);
    dist.sample(3);
    EXPECT_DOUBLE_EQ(dist.cdfAt(0), 0.25);
    EXPECT_DOUBLE_EQ(dist.cdfAt(1), 0.5);
    EXPECT_DOUBLE_EQ(dist.cdfAt(3), 1.0);
    EXPECT_DOUBLE_EQ(dist.cdfAt(100), 1.0);
}

TEST(Distribution, VarianceAndStddev)
{
    Distribution dist("d", 16);
    // Values 2 and 6, equally weighted: mean 4, variance 4.
    dist.sample(2, 5);
    dist.sample(6, 5);
    EXPECT_DOUBLE_EQ(dist.mean(), 4.0);
    EXPECT_DOUBLE_EQ(dist.variance(), 4.0);
    EXPECT_DOUBLE_EQ(dist.stddev(), 2.0);

    Distribution constant("c", 16);
    constant.sample(7, 100);
    EXPECT_DOUBLE_EQ(constant.variance(), 0.0);
}

TEST(Distribution, Percentiles)
{
    Distribution dist("d", 16);
    for (std::uint64_t v = 1; v <= 10; ++v)
        dist.sample(v);
    EXPECT_EQ(dist.percentile(0.5), 5u);
    EXPECT_EQ(dist.percentile(0.9), 9u);
    EXPECT_EQ(dist.percentile(1.0), 10u);
    EXPECT_EQ(dist.percentile(0.0), 1u)
        << "p=0 returns the smallest populated bucket";
}

TEST(Distribution, Reset)
{
    Distribution dist("d", 4);
    dist.sample(1);
    dist.reset();
    EXPECT_EQ(dist.samples(), 0u);
    EXPECT_EQ(dist.bucket(1), 0u);
    EXPECT_DOUBLE_EQ(dist.mean(), 0.0);
}

TEST(Distribution, DumpContainsCounts)
{
    Distribution dist("touched", 4);
    dist.sample(2, 3);
    std::ostringstream os;
    dist.dump(os);
    EXPECT_NE(os.str().find("touched"), std::string::npos);
    EXPECT_NE(os.str().find("3"), std::string::npos);
}
