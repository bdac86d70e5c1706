/**
 * @file
 * End-to-end integration tests: the paper's qualitative findings,
 * checked across the whole pipeline (program -> machine -> trace ->
 * cache -> metrics) at a reduced trace length, plus a file round-trip
 * through the persistence layer.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "cache/cache.hh"
#include "cache/sector_cache.hh"
#include "harness/experiment.hh"
#include "mem/bus_model.hh"
#include "multi/sweep_api.hh"
#include "trace/trace_file.hh"
#include "workload/suites.hh"

#include "env_guard.hh"
#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 600000;

/**
 * Table 6's grid (the 360/85 sector cache, then its 4-, 8- and 16-way
 * comparators) over the S/360 suite through runSweep under Auto,
 * DirectOnly and OCCSIM_SHARD=1, in that order. Built once: both
 * Table 6 claims read it.
 */
const std::vector<SweepReport> &
table6Reports()
{
    static const std::vector<SweepReport> reports = [] {
        const Suite suite = s360Model85Suite();
        SweepRequest request;
        request.traces = buildSuiteTraces(suite, kRefs);
        request.configs = {make360Model85Config(suite.profile.wordSize)};
        for (const CacheConfig &config :
             table6Comparators(suite.profile.wordSize))
            request.configs.push_back(config);

        std::vector<SweepReport> out;
        for (const std::string mode : {"auto", "direct", "shard"}) {
            const EnvGuard guard("OCCSIM_SHARD",
                                 mode == "shard" ? "1" : nullptr);
            request.engine = mode == "direct" ? SweepEngine::DirectOnly
                                              : SweepEngine::Auto;
            out.push_back(runSweep(request));
        }
        return out;
    }();
    return reports;
}

} // namespace

TEST(Integration, MinimumCacheCutsTrafficOn16BitSuites)
{
    // Section 2.2 / Conclusions: the 64-byte 4,2 minimum cache cuts
    // references and bus traffic by roughly one third on the 16-bit
    // suites.
    for (const Arch arch : {Arch::PDP11, Arch::Z8000}) {
        const Suite suite = suiteFor(arch);
        const SuiteRun run =
            runSuite(suite, {makeConfig(64, 4, 2, 2)}, kRefs);
        const SweepResult &result = run.average.front();
        EXPECT_LT(result.missRatio, 0.75) << suite.profile.name;
        EXPECT_LT(result.trafficRatio, 0.75) << suite.profile.name;
        EXPECT_GT(result.missRatio, 0.15) << suite.profile.name
            << ": a 64-byte cache cannot be this good";
    }
}

TEST(Integration, KilobyteCachePerformsWell16Bit)
{
    // Section 4.2: 1024-byte on-chip caches reach miss ratios below
    // 0.10 and traffic ratios below ~0.25 on the 16-bit suites
    // (paper: PDP-11 0.052/0.206, Z8000 0.023/0.092 at 16,8).
    for (const Arch arch : {Arch::PDP11, Arch::Z8000}) {
        const Suite suite = suiteFor(arch);
        const SuiteRun run =
            runSuite(suite, {makeConfig(1024, 16, 8, 2)}, kRefs);
        const SweepResult &result = run.average.front();
        EXPECT_LT(result.missRatio, 0.12) << suite.profile.name;
        EXPECT_LT(result.trafficRatio, 0.48) << suite.profile.name;
    }
}

TEST(Integration, S370ResistsSmallCaches)
{
    // Section 4.2.4: System/370 workloads defeat minimum caches and
    // still miss substantially at 1024 bytes (paper: 0.26 at 16,8).
    const Suite suite = s370Suite();
    const SuiteRun run = runSuite(
        suite,
        {makeConfig(64, 8, 8, 4), makeConfig(1024, 16, 8, 4)}, kRefs);
    EXPECT_GT(run.average[0].missRatio, 0.30)
        << "a 64-byte cache should barely help the S/370 suite";
    EXPECT_GT(run.average[1].missRatio, 0.10);
}

TEST(Integration, SubBlockTradeoffCurve)
{
    // Figure 2's b32 curve: at fixed block size, shrinking the
    // sub-block raises the miss ratio and lowers the traffic ratio,
    // monotonically along the whole curve.
    const Suite suite = pdp11Suite();
    std::vector<CacheConfig> configs;
    for (const std::uint32_t sub : {32u, 16u, 8u, 4u, 2u})
        configs.push_back(makeConfig(1024, 32, sub, 2));
    const SuiteRun run = runSuite(suite, configs, kRefs);
    for (std::size_t i = 1; i < run.average.size(); ++i) {
        EXPECT_GE(run.average[i].missRatio,
                  run.average[i - 1].missRatio - 1e-12);
        EXPECT_LE(run.average[i].trafficRatio,
                  run.average[i - 1].trafficRatio + 1e-12);
    }
}

TEST(Integration, NibbleModeDoublesOptimalSubBlock)
{
    // Section 4.3: under the 1 + (w-1)/3 burst cost, the
    // traffic-optimal sub-block size grows (roughly doubles).
    const Suite suite = pdp11Suite();
    std::vector<CacheConfig> configs;
    for (const std::uint32_t sub : {2u, 4u, 8u, 16u, 32u})
        configs.push_back(makeConfig(512, 32, sub, 2));
    const SuiteRun run = runSuite(suite, configs, kRefs);

    std::uint32_t best_linear = 0;
    std::uint32_t best_nibble = 0;
    double min_linear = 1e9;
    double min_nibble = 1e9;
    for (const SweepResult &result : run.average) {
        if (result.trafficRatio < min_linear) {
            min_linear = result.trafficRatio;
            best_linear = result.config.subBlockSize;
        }
        if (result.nibbleTrafficRatio < min_nibble) {
            min_nibble = result.nibbleTrafficRatio;
            best_nibble = result.config.subBlockSize;
        }
    }
    EXPECT_EQ(best_linear, 2u)
        << "on a linear bus the smallest sub-block minimizes traffic";
    EXPECT_GE(best_nibble, 2 * best_linear);
}

TEST(Integration, LoadForwardTable8Shape)
{
    // Table 8 on the compiler traces: relative to fetching the whole
    // block (sub == block), load-forward with 1-word sub-blocks cuts
    // traffic while costing only a little in miss ratio.
    const Suite suite = z8000CompilerSuite();
    CacheConfig whole = makeConfig(256, 16, 16, 2);
    CacheConfig lf = makeConfig(256, 16, 2, 2);
    lf.fetch = FetchPolicy::LoadForward;
    CacheConfig demand = makeConfig(256, 16, 2, 2);

    const SuiteRun run = runSuite(suite, {whole, lf, demand}, kRefs);
    const SweepResult &r_whole = run.average[0];
    const SweepResult &r_lf = run.average[1];
    const SweepResult &r_demand = run.average[2];

    EXPECT_LT(r_lf.trafficRatio, r_whole.trafficRatio)
        << "LF must reduce traffic vs whole-block fetch";
    EXPECT_LT(r_lf.missRatio, 1.35 * r_whole.missRatio)
        << "at a small cost in miss ratio";
    EXPECT_LT(r_lf.missRatio, r_demand.missRatio)
        << "LF cuts misses vs plain small sub-blocks";
    EXPECT_GT(r_lf.trafficRatio, r_demand.trafficRatio)
        << "at some cost in traffic";
}

TEST(Integration, SectorCacheThreeTimesWorse)
{
    // Table 6's headline: the 360/85 organisation misses roughly 3x
    // more than 4-way set-associative at equal size (paper 2.9x).
    // The batched, direct and sharded routes must agree bit for bit.
    const std::vector<SweepReport> &reports = table6Reports();
    expectIdenticalGrid(reports[1].perTrace, reports[0].perTrace);
    expectIdenticalGrid(reports[2].perTrace, reports[0].perTrace);

    // The shape: a clear gap, above the paper's own 2.9x. The band
    // is +-0.1 around the ratio measured at this trace length (3.84;
    // EXPERIMENTS.md's full-length run reads 3.4).
    const std::vector<SweepResult> &average = reports[0].average;
    const double ratio = average[0].missRatio / average[1].missRatio;
    EXPECT_GT(ratio, 3.0);
    EXPECT_NEAR(ratio, 3.84, 0.1);
}

TEST(Integration, MostSectorSubBlocksAreNeverReferenced)
{
    // Table 6's second claim: most sub-blocks of a resident 360/85
    // sector are never referenced (paper: 11.52 of 16, 72%). The
    // residency pair rides on SweepResult, so the batched, direct and
    // (OCCSIM_SHARD=1) sharded routes must all read the same value.
    std::vector<double> never;
    for (const SweepReport &report : table6Reports())
        never.push_back(report.average.front().neverReferencedFraction);
    EXPECT_EQ(never[1], never[0]);
    EXPECT_EQ(never[2], never[0]);

    // The shape: most sub-blocks never referenced. The band is +-2
    // points around the value measured at this trace length (57.3%;
    // the 20000-reference golden reads 51.7%): narrower than the 6.25
    // points one sub-block more or less per residency would move it.
    // The substitute workloads sit below the paper's 72% because
    // their sequential jobs use sectors more fully.
    EXPECT_GT(never[0], 0.5);
    EXPECT_NEAR(never[0], 0.573, 0.02);
}

TEST(Integration, TraceFileRoundTripPreservesMetrics)
{
    // Generating a trace, writing it, reading it back and simulating
    // must give bit-identical statistics.
    const Suite suite = z8000Suite();
    const WorkloadSpec &spec = suite.traces.front();
    VectorTrace trace = buildTrace(spec, 50000);

    Cache direct(makeConfig(256, 16, 8, 2));
    direct.run(trace);

    const std::string path =
        std::string(::testing::TempDir()) + "integration.otb";
    writeBinaryTrace(trace, path);
    VectorTrace loaded = readTrace(path);
    Cache via_file(makeConfig(256, 16, 8, 2));
    via_file.run(loaded);
    std::remove(path.c_str());

    EXPECT_EQ(direct.stats().misses(), via_file.stats().misses());
    EXPECT_EQ(direct.stats().wordsFetched(),
              via_file.stats().wordsFetched());
    EXPECT_EQ(direct.stats().writeMisses(),
              via_file.stats().writeMisses());
}

TEST(Integration, GrossSizeNeverBelowNetSize)
{
    // Sanity over the whole grid: tags and valid bits only add cost.
    for (const std::uint32_t net : {32u, 64u, 256u, 1024u}) {
        for (const CacheConfig &config : paperGrid(net, 2)) {
            const CacheGeometry geom(config);
            EXPECT_GT(geom.grossBytes(), config.netSize);
        }
    }
}
