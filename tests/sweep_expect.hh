/**
 * @file
 * The tests' bit-identity assertions on SweepResult: one EXPECT per
 * exact-engine field, so a failure names the field that diverged.
 * Covers the same fields as sameSweepResult (multi/sweep_runner.hh).
 */

#ifndef OCCSIM_TESTS_SWEEP_EXPECT_HH
#define OCCSIM_TESTS_SWEEP_EXPECT_HH

#include <gtest/gtest.h>

#include <vector>

#include "multi/sweep_runner.hh"

/** Bit-identical comparison of two SweepResults (exact doubles). */
inline void
expectIdentical(const occsim::SweepResult &a, const occsim::SweepResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.grossBytes, b.grossBytes);
    EXPECT_EQ(a.missRatio, b.missRatio);
    EXPECT_EQ(a.warmMissRatio, b.warmMissRatio);
    EXPECT_EQ(a.trafficRatio, b.trafficRatio);
    EXPECT_EQ(a.warmTrafficRatio, b.warmTrafficRatio);
    EXPECT_EQ(a.nibbleTrafficRatio, b.nibbleTrafficRatio);
    EXPECT_EQ(a.warmNibbleTrafficRatio, b.warmNibbleTrafficRatio);
    EXPECT_EQ(a.meanSubBlocksTouched, b.meanSubBlocksTouched);
    EXPECT_EQ(a.neverReferencedFraction, b.neverReferencedFraction);
}

/** expectIdentical over two per-trace result grids of equal shape. */
inline void
expectIdenticalGrid(const std::vector<std::vector<occsim::SweepResult>> &a,
                    const std::vector<std::vector<occsim::SweepResult>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size());
        for (std::size_t c = 0; c < a[t].size(); ++c)
            expectIdentical(a[t][c], b[t][c]);
    }
}

#endif // OCCSIM_TESTS_SWEEP_EXPECT_HH
