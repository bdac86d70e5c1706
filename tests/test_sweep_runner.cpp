/**
 * @file
 * Unit tests for the sweep summarization layer: runSingle vs a
 * hand-driven Cache (and, for a split I/D config, two half Caches
 * routed by reference kind), result summaries, and the paper's
 * unweighted multi-trace averaging.
 */

#include <gtest/gtest.h>

#include "cache/cache_geometry.hh"
#include "multi/sweep_runner.hh"
#include "workload/synthetic.hh"

#include "sweep_expect.hh"

using namespace occsim;

namespace {

std::vector<CacheConfig>
someConfigs()
{
    return {makeConfig(64, 16, 8, 2), makeConfig(256, 16, 8, 2),
            makeConfig(1024, 16, 8, 2), makeConfig(1024, 32, 4, 2)};
}

/** runSingle every config over a private copy of @p trace. */
std::vector<SweepResult>
sweepAll(const std::vector<CacheConfig> &configs,
         const VectorTrace &trace, std::uint64_t max_refs = 0)
{
    std::vector<SweepResult> out;
    out.reserve(configs.size());
    for (const CacheConfig &config : configs) {
        VectorTrace copy = trace;
        out.push_back(runSingle(config, copy, max_refs));
    }
    return out;
}

} // namespace

TEST(RunSingle, MatchesHandDrivenCache)
{
    SyntheticParams params;
    params.seed = 11;
    const VectorTrace trace = makeSyntheticTrace(params, 30000);

    for (const CacheConfig &config : someConfigs()) {
        Cache cache(config);
        VectorTrace direct_copy = trace;
        cache.run(direct_copy);
        cache.finalizeResidencies();
        const SweepResult direct = summarizeCache(cache);

        VectorTrace single_copy = trace;
        const SweepResult alone = runSingle(config, single_copy);
        EXPECT_DOUBLE_EQ(direct.missRatio, alone.missRatio);
        EXPECT_DOUBLE_EQ(direct.trafficRatio, alone.trafficRatio);
        EXPECT_DOUBLE_EQ(direct.nibbleTrafficRatio,
                         alone.nibbleTrafficRatio);
        EXPECT_EQ(direct.grossBytes, alone.grossBytes);
    }
}

TEST(RunSingle, ResultsCarryConfigs)
{
    SyntheticParams params;
    const VectorTrace trace = makeSyntheticTrace(params, 2000);
    const auto configs = someConfigs();
    const auto results = sweepAll(configs, trace);
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(results[i].config, configs[i]);
}

TEST(RunSingle, NibbleScalingConsistent)
{
    // For demand fetch every burst is one sub-block, so the scaled
    // ratio must equal traffic * (1/w)(1 + (w-1)/3) exactly.
    SyntheticParams params;
    params.seed = 47;
    SyntheticSource source(params);
    const SweepResult result =
        runSingle(makeConfig(256, 16, 8, 2), source, 20000);
    const double words = 8.0 / 2.0;
    const double factor = (1.0 + (words - 1.0) / 3.0) / words;
    EXPECT_NEAR(result.nibbleTrafficRatio,
                result.trafficRatio * factor, 1e-12);
}

TEST(RunSingle, SplitConfigSumsItsHalves)
{
    // A split config is two half caches: the summary counts both
    // halves' references and traffic, at twice a half's gross size.
    CacheConfig split = makeConfig(128, 16, 8, 2);
    split.partition = CachePartition::SplitID;
    VectorTrace trace("split");
    trace.append(0x100, RefKind::Ifetch, 2);    // I miss, 4 words
    trace.append(0x200, RefKind::DataRead, 2);  // D miss, 4 words
    trace.append(0x100, RefKind::Ifetch, 2);    // I hit
    const SweepResult result = runSingle(split, trace);
    EXPECT_EQ(result.config, split);
    EXPECT_DOUBLE_EQ(result.missRatio, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(result.trafficRatio, 8.0 / 3.0);
    EXPECT_EQ(result.grossBytes,
              2 * CacheGeometry(evenSplitHalf(split)).grossBytes());
    EXPECT_GT(result.grossBytes, 128u);
}

TEST(RunSingle, SplitConfigMatchesManualRouting)
{
    // Two plain half Caches fed by hand, instructions to one and data
    // to the other, give the same summary; the reference cap counts
    // references of both kinds.
    SyntheticParams params;
    params.seed = 29;
    const VectorTrace trace = makeSyntheticTrace(params, 30000);
    CacheConfig split = makeConfig(1024, 16, 8, 2);
    split.partition = CachePartition::SplitID;

    for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{20000}}) {
        SCOPED_TRACE(cap);
        Cache icache(makeConfig(512, 16, 8, 2));
        Cache dcache(makeConfig(512, 16, 8, 2));
        const std::size_t n = cap == 0 ? trace.size() : cap;
        for (std::size_t r = 0; r < n; ++r) {
            const MemRef &ref = trace.refs()[r];
            (ref.isInstruction() ? icache : dcache).access(ref);
        }
        icache.finalizeResidencies();
        dcache.finalizeResidencies();
        CacheStats merged = icache.stats();
        merged.mergeFrom(dcache.stats());
        EXPECT_GT(icache.stats().accesses(), 0u);
        EXPECT_GT(dcache.stats().accesses(), 0u);

        VectorTrace copy = trace;
        expectIdentical(runSingle(split, copy, cap),
                        summarizeStats(split,
                                       2 * icache.geometry().grossBytes(),
                                       merged));
    }
}

TEST(AverageResults, UnweightedMean)
{
    SyntheticParams params_a;
    params_a.seed = 1;
    SyntheticParams params_b;
    params_b.seed = 2;
    params_b.dataSize = 64 * 1024;  // worse locality

    const auto configs = someConfigs();
    std::vector<std::vector<SweepResult>> runs;
    for (const SyntheticParams &params : {params_a, params_b}) {
        const VectorTrace trace = makeSyntheticTrace(params, 20000);
        runs.push_back(sweepAll(configs, trace));
    }

    const auto averaged = averageResults(runs);
    ASSERT_EQ(averaged.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_NEAR(averaged[i].missRatio,
                    (runs[0][i].missRatio + runs[1][i].missRatio) / 2,
                    1e-12);
        EXPECT_NEAR(averaged[i].trafficRatio,
                    (runs[0][i].trafficRatio +
                     runs[1][i].trafficRatio) / 2,
                    1e-12);
    }
}

TEST(AverageResults, SingleRunIsIdentity)
{
    SyntheticParams params;
    const VectorTrace trace = makeSyntheticTrace(params, 10000);
    const auto results = sweepAll(someConfigs(), trace);
    const auto averaged = averageResults({results});
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_DOUBLE_EQ(averaged[i].missRatio, results[i].missRatio);
        EXPECT_DOUBLE_EQ(averaged[i].warmMissRatio,
                         results[i].warmMissRatio);
    }
}
