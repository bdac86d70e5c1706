/**
 * @file
 * Determinism tests for the set-sharded replay engine: the streaming
 * shard filter must hand every record to exactly one shard, in trace
 * order, ShardReplay's merged
 * statistics must be bit-identical to an unsharded run for every
 * eligible policy combination and shard count, and BOTH directions of
 * the routing predicate must hold — eligible configs merge exactly,
 * and force-sharding either ineligible policy (Random replacement,
 * next-block prefetch) demonstrably diverges from the full run.
 */

#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "harness/experiment.hh"
#include "multi/shard_replay.hh"
#include "multi/sweep_api.hh"
#include "trace/packed_trace.hh"
#include "workload/suites.hh"

#include "env_guard.hh"
#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;

/** Plan one trace's sweep of @p configs for @p pool's width and run
 *  it there (the plan keeps its engines for route and telemetry
 *  reads). */
SweepPlan
runPlanned(const std::vector<CacheConfig> &configs, SweepEngine engine,
           const std::shared_ptr<const VectorTrace> &trace,
           ThreadPool &pool)
{
    SweepPlan plan = planSweep(configs, engine, {trace->size()},
                               static_cast<unsigned>(pool.size()));
    runSweepPlan(plan, {trace}, {}, 0, pool);
    return plan;
}

/** Number of configs @p plan routes to the set-sharded engine. */
std::size_t
shardedCount(const SweepPlan &plan)
{
    return static_cast<std::size_t>(std::count(
        plan.route.begin(), plan.route.end(), SweepRoute::Shard));
}

/** Direct Cache::access simulation of @p config over @p trace. */
SweepResult
directResult(const CacheConfig &config, const VectorTrace &trace)
{
    Cache cache(config);
    for (const MemRef &ref : trace.refs())
        cache.access(ref);
    cache.finalizeResidencies();
    return summarizeCache(cache);
}

/** Sharded run of @p config at @p num_shards, sequential drive. */
SweepResult
shardedResult(const CacheConfig &config, const PackedTrace &packed,
              std::uint32_t num_shards)
{
    ShardReplay engine(config, num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s)
        engine.runShard(s, packed.data(), packed.size());
    return engine.result();
}

/**
 * Manual set-sharded run of ANY config (no eligibility assert):
 * filter by set-congruence, replay each shard on a private Cache,
 * merge the raw statistics. For eligible configs this is exactly what
 * ShardReplay computes; for ineligible ones it exhibits why sharding
 * is wrong.
 */
SweepResult
forcedShardMerge(const CacheConfig &config, const PackedTrace &packed,
                 std::uint32_t num_shards)
{
    const CacheGeometry geom(config);
    const std::uint32_t shard_bits = floorLog2(num_shards);
    CacheStats merged(geom.subBlocksPerBlock(),
                      geom.subBlocksPerBlock() *
                          geom.wordsPerSubBlock());
    for (std::uint32_t s = 0; s < num_shards; ++s) {
        Cache cache(config);
        forEachShardChunk(
            packed.data(), packed.size(), geom.blockBits(), shard_bits,
            s, [&](const PackedRecord *records, std::size_t count) {
                cache.replayPacked(records, count);
            });
        cache.finalizeResidencies();
        merged.mergeFrom(cache.stats());
    }
    return summarizeStats(config, geom.grossBytes(), merged);
}

} // namespace

TEST(ShardFilter, ShardsSplitThePrefixExactlyOnceInTraceOrder)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 20000);
    const PackedTrace packed(*trace);

    struct Split
    {
        std::uint32_t blockBits;
        std::uint32_t shardBits;
    };
    for (const Split split : {Split{2, 1}, Split{4, 2}, Split{5, 3},
                              Split{4, 6}}) {
        // 12345 is a multiple of none of the chunk lengths.
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{7}, std::size_t{4096},
              kShardChunkRecords}) {
            for (const std::size_t n : {std::size_t{12345},
                                        packed.size()}) {
                SCOPED_TRACE(testing::Message()
                             << "blockBits " << split.blockBits
                             << " shardBits " << split.shardBits
                             << " chunk " << chunk << " n " << n);
                const std::uint32_t shards = 1u << split.shardBits;
                std::vector<std::vector<PackedRecord>> out(shards);
                for (std::uint32_t s = 0; s < shards; ++s) {
                    const std::uint64_t kept = forEachShardChunk(
                        packed.data(), n, split.blockBits,
                        split.shardBits, s,
                        [&](const PackedRecord *records,
                            std::size_t count) {
                            EXPECT_GT(count, 0u);
                            EXPECT_LE(count, chunk);
                            out[s].insert(out[s].end(), records,
                                          records + count);
                        },
                        chunk);
                    EXPECT_EQ(kept, out[s].size());
                }

                // Walking the shards with one cursor each, in trace
                // order, meets every one of the first n records in
                // the shard its set-congruence demands — and nothing
                // else is left over.
                std::vector<std::size_t> cursor(shards, 0);
                for (std::size_t i = 0; i < n; ++i) {
                    const std::uint32_t s =
                        (packed[i].addr() >> split.blockBits) &
                        (shards - 1);
                    ASSERT_LT(cursor[s], out[s].size());
                    ASSERT_EQ(out[s][cursor[s]].bits, packed[i].bits);
                    ++cursor[s];
                }
                for (std::uint32_t s = 0; s < shards; ++s)
                    EXPECT_EQ(cursor[s], out[s].size());
            }
        }
    }
}

TEST(ShardFilter, EmptyShardsAndPrefixesNeverReachTheSink)
{
    // Every reference maps to set 0 mod 4: shards 1..3 are empty at
    // every chunk length, and an empty prefix is empty for shard 0.
    auto trace = std::make_shared<VectorTrace>("one-shard");
    for (int i = 0; i < 1000; ++i)
        trace->append(static_cast<Addr>(i % 16) * 64, RefKind::DataRead,
                      2);
    const PackedTrace packed(*trace);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    kShardChunkRecords}) {
        std::size_t calls = 0;
        const auto sink = [&](const PackedRecord *, std::size_t) {
            ++calls;
        };
        EXPECT_EQ(forEachShardChunk(packed.data(), packed.size(), 4, 2,
                                    0, sink, chunk),
                  packed.size());
        EXPECT_GT(calls, 0u);
        calls = 0;
        for (std::uint32_t s = 1; s < 4; ++s) {
            EXPECT_EQ(forEachShardChunk(packed.data(), packed.size(), 4,
                                        2, s, sink, chunk),
                      0u);
        }
        EXPECT_EQ(forEachShardChunk(packed.data(), 0, 4, 2, 0, sink,
                                    chunk),
                  0u);
        EXPECT_EQ(calls, 0u);
    }
}

TEST(ShardReplay, BitIdenticalToDirectAcrossPoliciesAndShardCounts)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);
    const std::uint32_t word = suite.profile.wordSize;

    std::vector<CacheConfig> configs;
    // LRU demand (the plain case), 128 sets.
    configs.push_back(makeConfig(8192, 16, 16, word));
    // Sector organisation (sub-block < block).
    configs.push_back(makeConfig(8192, 32, 8, word));
    // Load-forward fetch.
    {
        CacheConfig c = makeConfig(8192, 16, 8, word);
        c.fetch = FetchPolicy::LoadForward;
        configs.push_back(c);
    }
    // Copy-back writes (write-back traffic at evictions).
    {
        CacheConfig c = makeConfig(8192, 16, 16, word);
        c.write = WritePolicy::CopyBack;
        configs.push_back(c);
    }
    // No-allocate writes.
    {
        CacheConfig c = makeConfig(8192, 16, 8, word);
        c.writeAllocate = false;
        configs.push_back(c);
    }
    // FIFO replacement.
    {
        CacheConfig c = makeConfig(8192, 16, 16, word);
        c.replacement = ReplacementPolicy::FIFO;
        configs.push_back(c);
    }
    // Associativity 16: the runtime-assoc fallback kernel.
    {
        CacheConfig c = makeConfig(8192, 16, 16, word);
        c.assoc = 16;
        configs.push_back(c);
    }

    for (const CacheConfig &config : configs) {
        ASSERT_TRUE(shardEligible(config)) << config.fullName();
        const SweepResult expected = directResult(config, *trace);
        for (const std::uint32_t shards : {2u, 4u, 8u, 32u}) {
            if (shards > CacheGeometry(config).numSets())
                continue;
            expectIdentical(shardedResult(config, packed, shards),
                            expected);
        }
    }
}

TEST(ShardReplay, ZeroRefShardsMergeCleanly)
{
    // A trace that touches one single set: with 4 shards, three
    // sub-traces are empty and the merge must still be exact.
    auto trace = std::make_shared<VectorTrace>("one-set");
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            static_cast<Addr>(0x1000 + (i % 8) * (128 * 16));
        trace->append(addr, i % 5 == 0 ? RefKind::DataWrite
                                       : RefKind::DataRead,
                      2);
    }
    const CacheConfig config = makeConfig(8192, 16, 16, 2);  // 128 sets
    const PackedTrace packed(*trace);

    ShardReplay engine(config, 4);
    for (std::uint32_t s = 0; s < 4; ++s)
        engine.runShard(s, packed.data(), packed.size());

    // All references land in shard 0 (set index multiples of 128 are
    // congruent to 0 mod 4).
    EXPECT_EQ(engine.shardRefs(0), trace->size());
    EXPECT_EQ(engine.shardRefs(1), 0u);
    EXPECT_EQ(engine.shardRefs(2), 0u);
    EXPECT_EQ(engine.shardRefs(3), 0u);
    expectIdentical(engine.result(), directResult(config, *trace));

    // The imbalance telemetry reports the skew.
    ShardTelemetry telem;
    telem.accumulate(engine);
    EXPECT_EQ(telem.shardedRuns, 1u);
    EXPECT_EQ(telem.maxShards, 4u);
    EXPECT_EQ(telem.maxShardRefs, trace->size());
    EXPECT_EQ(telem.minShardRefs, 0u);
}

TEST(ShardReplay, PlanShardCountRespectsGeometryAndEligibility)
{
    const CacheConfig plain = makeConfig(8192, 16, 16, 2);  // 128 sets
    EXPECT_EQ(planShardCount(plain, 1), 1u) << "one worker, no split";
    EXPECT_EQ(planShardCount(plain, 2), 2u);
    EXPECT_EQ(planShardCount(plain, 8), 8u);
    EXPECT_EQ(planShardCount(plain, 5), 8u)
        << "smallest power of two covering the pool";
    EXPECT_EQ(planShardCount(plain, 1000), kMaxShards)
        << "clamped to the shard cap";

    // Fully associative: one set, nothing to split.
    CacheConfig full = makeConfig(256, 16, 16, 2);
    full.assoc = 16;  // 16 blocks, assoc 16 -> 1 set
    ASSERT_EQ(CacheGeometry(full).numSets(), 1u);
    EXPECT_EQ(planShardCount(full, 8), 1u);

    // Few sets: clamped to the set count.
    CacheConfig small = makeConfig(128, 16, 16, 2);  // 8 blocks
    ASSERT_EQ(CacheGeometry(small).numSets(), 2u);
    EXPECT_EQ(planShardCount(small, 8), 2u);

    // Ineligible policies never shard.
    CacheConfig random = plain;
    random.replacement = ReplacementPolicy::Random;
    EXPECT_FALSE(shardEligible(random));
    EXPECT_EQ(planShardCount(random, 8), 1u);
    CacheConfig prefetch = plain;
    prefetch.fetch = FetchPolicy::PrefetchNextOnMiss;
    EXPECT_FALSE(shardEligible(prefetch));
    EXPECT_EQ(planShardCount(prefetch, 8), 1u);

    // The heuristic needs a meaty trace and an idle pool.
    EXPECT_FALSE(shouldShard(ShardMode::Heuristic, plain, 8, 1000, 1));
    EXPECT_TRUE(shouldShard(ShardMode::Heuristic, plain, 8,
                            kShardMinRefs, 1));
    EXPECT_FALSE(shouldShard(ShardMode::Heuristic, plain, 8,
                             kShardMinRefs, 64))
        << "a saturated task grid wins over sharding";
    EXPECT_FALSE(shouldShard(ShardMode::Off, plain, 8, kShardMinRefs,
                             1));
    EXPECT_TRUE(shouldShard(ShardMode::Force, plain, 8, 10, 64));
    EXPECT_FALSE(shouldShard(ShardMode::Force, plain, 1, 10, 0))
        << "force cannot split below two shards";
}

TEST(ShardReplay, RoutingPredicateIsNecessaryForRandomReplacement)
{
    // Random replacement shares one Rng across all sets, so the
    // victim sequence depends on the global interleaving of misses
    // across sets — a sharded run consumes the stream per shard and
    // must diverge.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);

    CacheConfig config = makeConfig(512, 16, 16, 2);  // small: evicts
    config.replacement = ReplacementPolicy::Random;
    ASSERT_FALSE(shardEligible(config));

    const SweepResult full = directResult(config, *trace);
    const SweepResult merged = forcedShardMerge(config, packed, 4);
    EXPECT_FALSE(sameSweepResult(merged, full))
        << "sharding a Random-replacement run should diverge; if it "
           "ever merges exactly, the predicate proof needs revisiting";
}

TEST(ShardReplay, RoutingPredicateIsNecessaryForNextBlockPrefetch)
{
    // A miss on the LAST sub-block of a block prefetches the first
    // sub-block of the sequentially-next block — the next set, across
    // the shard boundary. Alternate (last sub of block 2k, first sub
    // of block 2k+1): the full run hits every second access off the
    // prefetch, the sharded run cannot (the prefetch landed in
    // another shard's cache), so the miss ratios differ by
    // construction.
    auto trace = std::make_shared<VectorTrace>("cross-block");
    for (Addr base = 0; base < 64 * 1024; base += 32) {
        trace->append(base + 8, RefKind::DataRead, 2);   // last sub
        trace->append(base + 16, RefKind::DataRead, 2);  // next block
    }
    const PackedTrace packed(*trace);

    CacheConfig config = makeConfig(4096, 16, 8, 2);
    config.fetch = FetchPolicy::PrefetchNextOnMiss;
    ASSERT_FALSE(shardEligible(config));

    const SweepResult full = directResult(config, *trace);
    const SweepResult merged = forcedShardMerge(config, packed, 4);
    EXPECT_FALSE(sameSweepResult(merged, full))
        << "sharding a next-block-prefetch run should diverge";
}

TEST(ShardReplay, MergeFromEqualsUnsplitStats)
{
    // CacheStats::mergeFrom over a set-partition reproduces the
    // unsplit statistics exactly (every field is an integer sum).
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 10000);
    const PackedTrace packed(*trace);
    CacheConfig config = makeConfig(4096, 32, 8, 2);
    config.write = WritePolicy::CopyBack;
    ASSERT_TRUE(shardEligible(config));
    expectIdentical(forcedShardMerge(config, packed, 2),
                    directResult(config, *trace));
}

TEST(ShardReplay, SingleThreadDegenerationNeverShards)
{
    // With one worker there is nothing to overlap: even a forced
    // OCCSIM_SHARD=1 run stays unsharded (planShardCount < 2) and the
    // results are the plain batched ones.
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 10000);
    const std::vector<CacheConfig> configs{
        makeConfig(4096, 32, 8, suite.profile.wordSize)};

    ThreadPool pool(1);
    const SweepPlan plan =
        runPlanned(configs, SweepEngine::Auto, trace, pool);
    EXPECT_EQ(shardedCount(plan), 0u);
    expectIdentical(planResults(plan, 0)[0],
                    directResult(configs[0], *trace));
}

TEST(ShardReplay, ForcedShardingThroughThePlanIsBitIdentical)
{
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    // Mix of sharding-ineligible and shardable configs.
    std::vector<CacheConfig> configs =
        {makeConfig(8192, 16, 16, suite.profile.wordSize),   // sub==block
         makeConfig(8192, 32, 8, suite.profile.wordSize)};   // sector
    {
        CacheConfig c = makeConfig(8192, 16, 8,
                                   suite.profile.wordSize);
        c.replacement = ReplacementPolicy::Random;  // ineligible
        configs.push_back(c);
    }

    ThreadPool pool(4);
    const SweepPlan reference =
        runPlanned(configs, SweepEngine::DirectOnly, trace, pool);
    const SweepPlan routed =
        runPlanned(configs, SweepEngine::Auto, trace, pool);
    EXPECT_EQ(shardedCount(routed), 2u)
        << "the sub==block and sector configs shard, Random is ineligible";
    EXPECT_EQ(routed.route[0], SweepRoute::Shard);
    EXPECT_EQ(routed.route[1], SweepRoute::Shard);
    EXPECT_NE(routed.route[2], SweepRoute::Shard);
    expectIdenticalGrid({planResults(routed, 0)},
                        {planResults(reference, 0)});

    const ShardTelemetry telem = planShardTelemetry(routed);
    EXPECT_EQ(telem.shardedRuns, 2u);
    EXPECT_GE(telem.maxShards, 2u);
}

TEST(ShardReplay, ForcedShardingUnderCrossCheckIsClean)
{
    // CrossCheck shadows sharded configs on the direct engine and
    // fatals on any divergence — a clean run IS the assertion.
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 10000);
    const std::vector<CacheConfig> configs{
        makeConfig(4096, 32, 8, suite.profile.wordSize),
        makeConfig(4096, 16, 4, suite.profile.wordSize)};

    ThreadPool pool(4);
    const SweepPlan plan =
        runPlanned(configs, SweepEngine::CrossCheck, trace, pool);
    EXPECT_GT(plan.shadowIndex.size(), 0u);
    EXPECT_GT(shardedCount(plan), 0u);
}

TEST(ShardReplay, RunSweepRecordsShardRoutesInTheManifest)
{
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();

    SweepRequest request;
    request.traces = {buildTraceShared(suite.traces.front(), 10000)};
    request.configs = {makeConfig(4096, 32, 8,
                                  suite.profile.wordSize)};
    ThreadPool pool(4);
    request.pool = &pool;
    request.label = "shard-manifest-test";
    const SweepReport report = runSweep(request);

    const obs::SweepRecord *ours = nullptr;
    for (const obs::SweepRecord &sweep : report.manifest.sweeps) {
        if (sweep.label == "shard-manifest-test")
            ours = &sweep;
    }
    ASSERT_NE(ours, nullptr);
    EXPECT_EQ(ours->shardedRuns, 1u);
    EXPECT_GE(ours->shardMaxShards, 2u);
    EXPECT_GT(ours->shardMaxRefs, 0u);
    ASSERT_EQ(ours->routes.size(), 1u);
    EXPECT_EQ(ours->routes[0].engine, "shard");

    // And the numbers are the unsharded ones.
    request.engine = SweepEngine::DirectOnly;
    expectIdenticalGrid(report.perTrace, runSweep(request).perTrace);
}
