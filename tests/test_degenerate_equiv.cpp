/**
 * @file
 * Degenerate-equivalence suite: design points that must collapse to
 * the same machine must produce bit-identical statistics, every
 * counter and histogram included.
 *
 *  - sub-block == block degenerates the sector organization to a
 *    conventional cache, so the fetch policy no longer matters: with
 *    exactly one sub-block per block, load-forward (simple and
 *    optimized) fetches precisely the demand sub-block. All three
 *    policies must agree across the paper grid.
 *  - A 360/85 variant with 64-byte sectors and 64-byte sub-blocks
 *    (sub == block) must match the equivalent conventional
 *    16-way-associative cache under every fetch policy.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "check/generators.hh"
#include "check/reference_cache.hh"
#include "harness/experiment.hh"

using namespace occsim;

namespace {

/** Shared adversarial traces from the fuzz generator (fixed seed). */
const VectorTrace &
sharedTrace(std::uint32_t word_size)
{
    static const std::shared_ptr<VectorTrace> w2 =
        TraceGen(0xde9e7ull).make(60000, 2);
    static const std::shared_ptr<VectorTrace> w4 =
        TraceGen(0xde9e8ull).make(60000, 4);
    return word_size == 2 ? *w2 : *w4;
}

CacheStats
runConfig(const CacheConfig &config)
{
    Cache cache(config);
    for (const MemRef &ref : sharedTrace(config.wordSize).refs())
        cache.access(ref);
    cache.finalizeResidencies();
    return cache.stats();
}

/** Expect bit-identical full statistics, reporting every field that
 *  differs. */
void
expectSameStats(const std::string &label, const CacheStats &a,
                const CacheStats &b)
{
    const auto diffs = diffCacheStats(label, a, b);
    for (const std::string &line : diffs)
        ADD_FAILURE() << line;
    EXPECT_TRUE(diffs.empty());
}

std::vector<CacheConfig>
conventionalGrid()
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t net : {64u, 256u, 1024u}) {
        for (const CacheConfig &config : paperGrid(net, 2)) {
            if (config.subBlockSize == config.blockSize)
                configs.push_back(config);
        }
    }
    return configs;
}

class DegenerateFetch : public ::testing::TestWithParam<CacheConfig>
{
};

} // namespace

TEST_P(DegenerateFetch, LoadForwardEqualsDemandWithOneSubPerBlock)
{
    CacheConfig demand = GetParam();
    demand.fetch = FetchPolicy::Demand;
    const CacheStats want = runConfig(demand);

    CacheConfig lf = demand;
    lf.fetch = FetchPolicy::LoadForward;
    expectSameStats("lf-vs-demand", runConfig(lf), want);

    CacheConfig lfo = demand;
    lfo.fetch = FetchPolicy::LoadForwardOptimized;
    expectSameStats("lfo-vs-demand", runConfig(lfo), want);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGridConventional, DegenerateFetch,
    ::testing::ValuesIn(conventionalGrid()),
    [](const ::testing::TestParamInfo<CacheConfig> &param_info) {
        const CacheConfig &config = param_info.param;
        return "net" + std::to_string(config.netSize) + "_b" +
               std::to_string(config.blockSize);
    });

TEST(DegenerateEquiv, DegenerateSectorMatchesConventionalCache)
{
    // Shrink the 360/85 sectors to their sub-block size: one
    // sub-block per block. The sector machine is now a conventional
    // 16 KB 64-byte-block cache, and must behave as one under every
    // fetch policy.
    CacheConfig degenerate = make360Model85Config(4);
    degenerate.blockSize = degenerate.subBlockSize;  // 64-byte sectors
    degenerate.fetch = FetchPolicy::Demand;
    const CacheStats want = runConfig(degenerate);

    for (const FetchPolicy fetch :
         {FetchPolicy::LoadForward, FetchPolicy::LoadForwardOptimized}) {
        CacheConfig config = degenerate;
        config.fetch = fetch;
        expectSameStats("degenerate-360-85", runConfig(config), want);
    }

    // And the naive oracle agrees with the whole collapsed point.
    ReferenceCache oracle(degenerate);
    oracle.run(sharedTrace(4).refs());
    oracle.finalize();
    const auto diffs = diffStats(oracle.stats(), want);
    for (const std::string &line : diffs)
        ADD_FAILURE() << line;
    EXPECT_TRUE(diffs.empty());
}
