/**
 * @file
 * Tests of the differential oracle & fuzz subsystem itself: the
 * naive ReferenceCache must match the real engines across the paper
 * grid and generated adversarial cases, generators must be pure
 * functions of their seed, the CrossCheck runtime mode must verify
 * (and match) the fast path, and — crucially — an injected
 * off-by-one must be caught and shrunk to a tiny replayable repro.
 * A fuzzer that cannot detect a planted bug is worthless evidence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/fuzz.hh"
#include "check/generators.hh"
#include "harness/experiment.hh"
#include "multi/sample_replay.hh"
#include "multi/sweep_api.hh"

#include "sweep_expect.hh"

using namespace occsim;

namespace {

/** Suite sweep through the unified API; returns the per-trace grid. */
std::vector<std::vector<occsim::SweepResult>>
sweepGrid(const std::vector<std::shared_ptr<const occsim::VectorTrace>>
              &traces,
          const std::vector<occsim::CacheConfig> &configs,
          occsim::ThreadPool *pool,
          occsim::SweepEngine engine = occsim::SweepEngine::Auto)
{
    occsim::SweepRequest request;
    request.traces = traces;
    request.configs = configs;
    request.pool = pool;
    request.engine = engine;
    request.wantAverage = false;
    return occsim::runSweep(request).perTrace;
}

constexpr std::uint64_t kSeed = 0x5eedull;

/** Expect no differential mismatch, reporting every diff line. */
void
expectClean(const CacheConfig &config, const std::vector<MemRef> &refs)
{
    const CaseReport report = runDifferentialCase(config, refs);
    for (const std::string &line : report.diffs)
        ADD_FAILURE() << config.fullName() << ": " << line;
    EXPECT_FALSE(report.mismatch());
}

} // namespace

TEST(Generators, ConfigGenIsDeterministic)
{
    ConfigGen a(kSeed), b(kSeed), other(kSeed + 1);
    bool any_difference = false;
    for (int i = 0; i < 64; ++i) {
        const CacheConfig from_a = a.next();
        EXPECT_EQ(from_a, b.next());
        any_difference = any_difference || !(from_a == other.next());
    }
    EXPECT_TRUE(any_difference);
}

TEST(Generators, TraceGenIsDeterministic)
{
    TraceGen a(kSeed), b(kSeed);
    const auto ta = a.make(2000, 2);
    const auto tb = b.make(2000, 2);
    ASSERT_EQ(ta->size(), tb->size());
    for (std::size_t i = 0; i < ta->size(); ++i) {
        EXPECT_EQ((*ta)[i].addr, (*tb)[i].addr);
        EXPECT_EQ((*ta)[i].kind, (*tb)[i].kind);
    }
}

TEST(Generators, ConfigGenCoversTheDesignSpace)
{
    ConfigGen gen(kSeed);
    std::set<ReplacementPolicy> replacements;
    std::set<FetchPolicy> fetches;
    std::set<WritePolicy> writes;
    std::size_t eligible = 0;
    for (int i = 0; i < 400; ++i) {
        const CacheConfig config = gen.next();
        // Every generated point must be a valid geometry
        // (construction aborts on an invalid one).
        const CacheGeometry geom(config);
        EXPECT_GE(geom.numBlocks(), 1u);
        replacements.insert(config.replacement);
        fetches.insert(config.fetch);
        writes.insert(config.write);
        if (checkpointEligible(config))
            ++eligible;
    }
    EXPECT_EQ(replacements.size(), 3u);
    EXPECT_EQ(fetches.size(), 4u);
    EXPECT_EQ(writes.size(), 2u);
    // The forced quarter (all LRU + demand + sub == block +
    // write-allocate) keeps the checkpoint family a healthy fraction
    // of cases.
    EXPECT_GE(eligible, 40u);
}

TEST(Generators, TracesAreWordAlignedAndMixed)
{
    TraceGen gen(kSeed);
    const auto trace = gen.make(5000, 4);
    ASSERT_EQ(trace->size(), 5000u);
    std::set<RefKind> kinds;
    for (const MemRef &ref : trace->refs()) {
        EXPECT_EQ(ref.addr % 4, 0u);
        kinds.insert(ref.kind);
    }
    EXPECT_EQ(kinds.size(), 3u);
}

TEST(Differential, OracleMatchesEnginesOnThePaperGrid)
{
    // The paper's own design points, driven by one adversarial trace
    // per word size: every engine must agree on every point.
    TraceGen gen(kSeed);
    const auto trace = gen.make(20000, 2);
    for (const std::uint32_t net : {64u, 256u, 1024u}) {
        for (const CacheConfig &config : paperGrid(net, 2))
            expectClean(config, trace->refs());
    }
}

TEST(Differential, OracleMatchesEnginesOnRandomCases)
{
    for (std::uint64_t case_seed = 1; case_seed <= 24; ++case_seed) {
        const FuzzCase fuzz_case = makeFuzzCase(case_seed, 600);
        expectClean(fuzz_case.config, fuzz_case.trace->refs());
    }
}

TEST(Fuzz, FixedSeedRunIsCleanAndReplayable)
{
    FuzzOptions options;
    options.cases = 40;
    options.refsPerCase = 400;
    const FuzzSummary summary = runFuzz(options);
    EXPECT_TRUE(summary.passed());
    EXPECT_EQ(summary.casesRun, 40u);

    // Replaying any individual case (here: the generator's first) is
    // independent of loop position and equally clean.
    Rng master(options.seed);
    const FuzzSummary replay =
        replayFuzzCase(master.next(), options);
    EXPECT_TRUE(replay.passed());
}

TEST(Fuzz, InjectedOffByOneIsCaughtAndShrunk)
{
    // The acceptance gate for the whole subsystem: perturb the
    // oracle's miss count post-hoc and require the harness to flag
    // the mismatch and shrink it to a minimal repro.
    FuzzOptions options;
    options.cases = 4;
    options.refsPerCase = 768;
    options.diff.perturbReference = [](ReferenceStats &stats) {
        if (stats.misses > 0)
            --stats.misses;
        else
            ++stats.misses;
    };
    const FuzzSummary summary = runFuzz(options);
    ASSERT_EQ(summary.mismatches, 1u);
    EXPECT_FALSE(summary.diffs.empty());

    // Shrunk repro: tiny, still failing under the fault, and clean
    // without it (so it reproduces the *injected* divergence, not an
    // artifact of shrinking).
    EXPECT_LE(summary.shrunk.refs.size(), 32u);
    EXPECT_GE(summary.shrunk.refs.size(), 1u);
    EXPECT_TRUE(runDifferentialCase(summary.shrunk.config,
                                    summary.shrunk.refs, options.diff)
                    .mismatch());
    EXPECT_FALSE(runDifferentialCase(summary.shrunk.config,
                                     summary.shrunk.refs)
                     .mismatch());

    // The repro is a paste-ready test body naming the replay seed's
    // ingredients.
    EXPECT_NE(summary.repro.find("CacheConfig config;"),
              std::string::npos);
    EXPECT_NE(summary.repro.find("runDifferentialCase"),
              std::string::npos);
    EXPECT_EQ(summary.failingCaseSeed,
              Rng(options.seed).next());  // first case failed

    // And the case seed replays to the same shrunk repro.
    const FuzzSummary replay =
        replayFuzzCase(summary.failingCaseSeed, options);
    EXPECT_EQ(replay.mismatches, 1u);
    EXPECT_EQ(replay.shrunk.refs.size(), summary.shrunk.refs.size());
    EXPECT_EQ(replay.repro, summary.repro);
}

TEST(CrossCheck, ShadowVerifiesTheOptimizedEngines)
{
    // A mixed grid: fused groups alongside lone configs (batched);
    // shadows sample across both.
    std::vector<CacheConfig> configs;
    for (const std::uint32_t net : {256u, 1024u}) {
        for (const CacheConfig &config : paperGrid(net, 2))
            configs.push_back(config);
    }
    TraceGen gen(kSeed);
    const std::shared_ptr<const VectorTrace> trace =
        gen.make(20000, 2);

    const SweepPlan plan = planSweep(configs, SweepEngine::CrossCheck, {},
                                     globalThreadPool().size());
    EXPECT_GE(plan.shadowIndex.size(), 1u);
    EXPECT_LE(plan.shadowIndex.size(), configs.size());
    const auto fused = std::count(plan.route.begin(), plan.route.end(),
                                  SweepRoute::Fused);
    EXPECT_EQ(std::count(plan.route.begin(), plan.route.end(),
                         SweepRoute::Batch) +
                  fused,
              static_cast<std::ptrdiff_t>(configs.size()))
        << "under CrossCheck every config is on an optimized engine";
    EXPECT_GE(fused, 2) << "the paper grid's sector configs should fuse";

    // CrossCheck is Auto plus verification (fatal on any divergence):
    // identical results.
    expectIdenticalGrid(
        sweepGrid({trace}, configs, nullptr, SweepEngine::CrossCheck),
        sweepGrid({trace}, configs, nullptr));
}

TEST(CrossCheck, RunSweepDelegatesPerTrace)
{
    std::vector<CacheConfig> configs;
    for (const CacheConfig &config : paperGrid(256, 2))
        configs.push_back(config);
    TraceGen gen(kSeed);
    const std::vector<std::shared_ptr<const VectorTrace>> traces{
        gen.make(8000, 2), gen.make(8000, 2)};

    const auto checked =
        sweepGrid(traces, configs, nullptr, SweepEngine::CrossCheck);
    const auto plain = sweepGrid(traces, configs, nullptr);
    expectIdenticalGrid(checked, plain);
}
