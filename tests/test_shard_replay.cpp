/**
 * @file
 * Determinism tests for sharded tiles, the shard route: the streaming
 * shard filter must hand every record to exactly one shard, in trace
 * order (and at one shard, every record in place; with a kind
 * stream, only that kind's records), a sharded
 * TileReplay's merged statistics must be bit-identical to an
 * unsharded run for every
 * eligible policy combination and shard count, and BOTH directions of
 * the routing predicate must hold — eligible configs merge exactly,
 * and force-sharding either ineligible policy (Random replacement,
 * next-block prefetch) demonstrably diverges from the full run. Shard
 * tiles — several configs behind one filter pass per shard — must
 * price every member exactly, and the planner must only tile configs
 * whose set fields hold the shared window.
 */

#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "multi/tile_replay.hh"
#include "obs/telemetry.hh"
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

/** Sharded run of @p config at @p num_shards over the @p n records
 *  of @p refs (either layout), sequential drive. */
template <class Rec>
SweepResult
shardedResult(const CacheConfig &config, const Rec *refs, std::size_t n,
              std::uint32_t num_shards)
{
    TileReplay engine({config}, num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s)
        engine.runShard(s, refs, n);
    return engine.results()[0];
}

/**
 * Manual set-sharded run of ANY config (no eligibility assert):
 * filter by set-congruence, replay each shard on a private Cache,
 * merge the raw statistics. For eligible configs this is exactly what
 * a sharded TileReplay computes; for ineligible ones it exhibits why sharding
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
                const auto filter = [&](const auto *refs) {
                    std::vector<std::vector<PackedRecord>> out(shards);
                    for (std::uint32_t s = 0; s < shards; ++s) {
                        const std::uint64_t kept = forEachShardChunk(
                            refs, n, split.blockBits, split.shardBits,
                            s,
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
                    return out;
                };
                const auto out = filter(packed.data());

                // Filtering the MemRef span packs as it compacts: the
                // same records reach every shard's sink.
                const auto from_refs = filter(trace->refs().data());
                for (std::uint32_t s = 0; s < shards; ++s) {
                    ASSERT_EQ(from_refs[s].size(), out[s].size());
                    for (std::size_t i = 0; i < out[s].size(); ++i)
                        ASSERT_EQ(from_refs[s][i].bits, out[s][i].bits);
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

TEST(ShardFilter, ZeroShardBitsHandPackedChunksOverInPlace)
{
    // One shard: the filter is the identity, so a packed span reaches
    // the sink as pointers into the caller's records, chunk by chunk,
    // with no copy.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 1000);
    const PackedTrace packed(*trace);
    for (const std::size_t chunk : {std::size_t{7}, kShardChunkRecords}) {
        SCOPED_TRACE(chunk);
        std::size_t pos = 0;
        const std::uint64_t kept = forEachShardChunk(
            packed.data(), packed.size(), 4, 0, 0,
            [&](const PackedRecord *records, std::size_t count) {
                EXPECT_EQ(records, packed.data() + pos);
                EXPECT_EQ(count, std::min(chunk, packed.size() - pos));
                pos += count;
            },
            chunk);
        EXPECT_EQ(kept, packed.size());
        EXPECT_EQ(pos, packed.size());
    }
}

TEST(ShardFilter, ZeroShardBitsPackMemRefChunksInOrder)
{
    // One shard over a MemRef span: every record reaches the sink
    // packed, in trace order, in full chunks of 7 but the last.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 1000);
    const std::vector<MemRef> &refs = trace->refs();
    std::vector<PackedRecord> seen;
    const std::uint64_t kept = forEachShardChunk(
        refs.data(), refs.size(), 4, 0, 0,
        [&](const PackedRecord *records, std::size_t count) {
            EXPECT_EQ(count, std::min<std::size_t>(7, refs.size() -
                                                         seen.size()));
            seen.insert(seen.end(), records, records + count);
        },
        7);
    EXPECT_EQ(kept, refs.size());
    ASSERT_EQ(seen.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        ASSERT_EQ(seen[i].bits, PackedRecord::pack(refs[i]).bits) << i;
}

TEST(ShardFilter, KindStreamsKeepOneReferenceKindPerShard)
{
    // With a kind stream the filter keeps, per shard, exactly the
    // records of that kind in trace order, at any chunk length and
    // from either record layout; at zero shard bits it keeps one kind
    // of the whole trace. The two kinds of a shard partition it.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 20000);
    const PackedTrace packed(*trace);
    constexpr std::uint32_t kBlockBits = 4;
    for (const std::uint32_t shard_bits : {0u, 2u}) {
        const std::uint32_t shards = 1u << shard_bits;
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{7}, kShardChunkRecords}) {
            for (std::uint32_t s = 0; s < shards; ++s) {
                SCOPED_TRACE(testing::Message()
                             << "shardBits " << shard_bits << " chunk "
                             << chunk << " shard " << s);
                std::vector<std::uint64_t> ifetch;
                std::vector<std::uint64_t> data;
                for (std::size_t i = 0; i < packed.size(); ++i) {
                    if (((packed[i].addr() >> kBlockBits) &
                         (shards - 1)) == s)
                        (packed[i].isInstruction() ? ifetch : data)
                            .push_back(packed[i].bits);
                }
                ASSERT_FALSE(ifetch.empty());
                ASSERT_FALSE(data.empty());
                const auto filter = [&](const auto *refs,
                                        RefStream stream) {
                    std::vector<std::uint64_t> out;
                    const std::uint64_t kept = forEachShardChunk(
                        refs, packed.size(), kBlockBits, shard_bits, s,
                        [&](const PackedRecord *records,
                            std::size_t count) {
                            EXPECT_GT(count, 0u);
                            EXPECT_LE(count, chunk);
                            for (std::size_t i = 0; i < count; ++i)
                                out.push_back(records[i].bits);
                        },
                        chunk, stream);
                    EXPECT_EQ(kept, out.size());
                    return out;
                };
                EXPECT_EQ(filter(packed.data(), RefStream::Ifetch), ifetch);
                EXPECT_EQ(filter(trace->refs().data(), RefStream::Ifetch),
                          ifetch);
                EXPECT_EQ(filter(packed.data(), RefStream::Data), data);
                EXPECT_EQ(filter(trace->refs().data(), RefStream::Data),
                          data);
            }
        }
    }
}

TEST(TileReplay, BitIdenticalToDirectAcrossPoliciesAndShardCounts)
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
            expectIdentical(shardedResult(config, packed.data(),
                                          packed.size(), shards),
                            expected);
            expectIdentical(shardedResult(config, trace->refs().data(),
                                          trace->size(), shards),
                            expected);
        }
    }
}

TEST(TileReplay, ZeroRefShardsMergeCleanly)
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

    TileReplay engine({config}, 4);
    for (std::uint32_t s = 0; s < 4; ++s)
        engine.runShard(s, packed.data(), packed.size());

    // All references land in shard 0 (set index multiples of 128 are
    // congruent to 0 mod 4).
    EXPECT_EQ(engine.shardRefs()[0], trace->size());
    EXPECT_EQ(engine.shardRefs()[1], 0u);
    EXPECT_EQ(engine.shardRefs()[2], 0u);
    EXPECT_EQ(engine.shardRefs()[3], 0u);
    expectIdentical(engine.results()[0], directResult(config, *trace));

    // The imbalance telemetry reports the skew.
    ShardTelemetry telem;
    telem.accumulate(engine.shardRefs(), engine.size());
    EXPECT_EQ(telem.shardedRuns, 1u);
    EXPECT_EQ(telem.maxShards, 4u);
    EXPECT_EQ(telem.maxShardRefs, trace->size());
    EXPECT_EQ(telem.minShardRefs, 0u);
}

TEST(TileReplay, TileOfBlockSizesMatchesDirectFromBothSpans)
{
    // 8 KB 4-way at 16, 32 and 64 B blocks: set fields [4, 11),
    // [5, 11) and [6, 11), so one window from bit 6 holds up to 5
    // shard bits for all three. Mixed policies put every member on a
    // different replay kernel.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);
    const std::uint32_t word = suite.profile.wordSize;
    std::vector<CacheConfig> configs{makeConfig(8192, 16, 8, word)};
    {
        CacheConfig c = makeConfig(8192, 32, 8, word);
        c.write = WritePolicy::CopyBack;
        c.fetch = FetchPolicy::LoadForward;
        configs.push_back(c);
    }
    {
        CacheConfig c = makeConfig(8192, 64, 16, word);
        c.replacement = ReplacementPolicy::FIFO;
        c.writeAllocate = false;
        configs.push_back(c);
    }
    std::vector<SweepResult> expected;
    for (const CacheConfig &config : configs)
        expected.push_back(directResult(config, *trace));

    for (const std::uint32_t shards : {2u, 4u, 32u}) {
        SCOPED_TRACE(testing::Message() << shards << " shards");
        const auto run = [&](const auto *refs, std::size_t n) {
            TileReplay engine(configs, shards);
            EXPECT_EQ(engine.windowBits(), 6u);
            for (std::uint32_t s = 0; s < shards; ++s)
                engine.runShard(s, refs, n);
            std::uint64_t kept = 0;
            for (std::uint32_t s = 0; s < shards; ++s)
                kept += engine.shardRefs()[s];
            EXPECT_EQ(kept, n);
            return engine.results();
        };
        expectIdenticalGrid({run(packed.data(), packed.size())},
                            {expected});
        expectIdenticalGrid({run(trace->refs().data(), trace->size())},
                            {expected});
    }
    EXPECT_FALSE(ShardWindow{}.with(configs[0]).with(configs[2]).holds(6))
        << "64 shards would leave the 64 B config's 32 sets";
}

namespace {

/** Four shard-eligible configs on 4 shards (2 window bits): three
 *  whose set fields ([4, 10), [6, 10), [4, 9)) hold the window
 *  [6, 8), and a small one ([4, 7)) that cannot join them. */
std::vector<CacheConfig>
tiledConfigs(std::uint32_t word)
{
    return {makeConfig(4096, 16, 8, word),   // 64 sets
            makeConfig(4096, 64, 16, word),  // 16 sets
            makeConfig(512, 16, 8, word),    // 8 sets
            makeConfig(2048, 16, 16, word)};  // 32 sets
}

} // namespace

TEST(TileReplay, ConfigOutsideTheWindowGetsItsOwnTile)
{
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const std::vector<CacheConfig> configs =
        tiledConfigs(suite.profile.wordSize);

    ThreadPool pool(4);
    const SweepPlan reference =
        runPlanned(configs, SweepEngine::DirectOnly, trace, pool);
    const SweepPlan routed =
        runPlanned(configs, SweepEngine::Auto, trace, pool);
    ASSERT_EQ(shardedCount(routed), configs.size());
    const TracePlan &tp = routed.traces[0];
    EXPECT_EQ(tp.tileIndex,
              (std::vector<std::vector<std::size_t>>{{0, 1, 3}, {2}}));
    ASSERT_EQ(tp.tiles.size(), 2u);
    EXPECT_EQ(tp.tiles[0]->windowBits(), 6u);
    EXPECT_EQ(tp.tiles[1]->windowBits(), 4u);
    EXPECT_EQ(tp.tiles[0]->numShards(), 4u);
    expectIdenticalGrid({planResults(routed, 0)},
                        {planResults(reference, 0)});

    // Tiles still report one sharded run per (trace, config).
    EXPECT_EQ(planShardTelemetry(routed).shardedRuns, configs.size());
}

TEST(TileReplay, EachTileFiltersTheTraceOncePerShard)
{
    // engine.shard.bytes counts the bytes the filters read: one trace
    // scan per (tile, shard), not per (config, shard). engine.shard.refs
    // still counts config-references: every kept record once per
    // tile member.
    const EnvGuard guard("OCCSIM_SHARD", "1");
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const std::vector<CacheConfig> configs =
        tiledConfigs(suite.profile.wordSize);

    ThreadPool pool(4);
    const bool was_enabled = obs::telemetryEnabled();
    obs::setTelemetryEnabled(true);
    obs::telemetry().reset();
    const SweepPlan plan =
        runPlanned(configs, SweepEngine::Auto, trace, pool);
    const auto counters = obs::telemetry().counters();
    obs::telemetry().reset();
    obs::setTelemetryEnabled(was_enabled);

    const auto counter = [&](const std::string &name) {
        for (const obs::CounterSnapshot &c : counters) {
            if (c.name == name)
                return c.value;
        }
        ADD_FAILURE() << "no counter " << name;
        return std::uint64_t{0};
    };
    const TracePlan &tp = plan.traces[0];
    ASSERT_EQ(tp.tiles.size(), 2u);
    const std::uint64_t bytes = trace->size() * sizeof(MemRef);
    EXPECT_EQ(counter("engine.shard.bytes"), 4 * tp.tiles.size() * bytes)
        << "one filter pass per shard per tile";
    EXPECT_EQ(counter("engine.shard.refs"),
              trace->size() * configs.size());
}

TEST(TileReplay, PlanShardCountRespectsGeometryAndEligibility)
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

TEST(TileReplay, RoutingPredicateIsNecessaryForRandomReplacement)
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

TEST(TileReplay, RoutingPredicateIsNecessaryForNextBlockPrefetch)
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

TEST(TileReplay, MergeFromEqualsUnsplitStats)
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

TEST(TileReplay, SingleThreadDegenerationNeverShards)
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

TEST(TileReplay, ForcedShardingThroughThePlanIsBitIdentical)
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

TEST(TileReplay, ForcedShardingUnderCrossCheckIsClean)
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

TEST(TileReplay, RunSweepRecordsShardRoutesInTheManifest)
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
