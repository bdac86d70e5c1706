/**
 * @file
 * Determinism tests for the fused sector-grid replay engine: every
 * member of a fused group must be bit-identical to its own direct
 * Cache simulation at the edges of the mask-plane design — the
 * sub == block degenerate (one-bit masks, where load-forward
 * collapses to demand), the full 64-sub-block mask width (the
 * span == 64 shift guard), and load-forward misses on a block's LAST
 * sub-block (the fetch stops at the block boundary; it never wraps
 * into the next block) — plus the grouping/routing layer: oversized
 * key populations split at kMaxGroupConfigs, the planner routes
 * sibling groups through the fused engine, and set-sharded fused
 * passes merge exactly.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "harness/experiment.hh"
#include "multi/fused_replay.hh"
#include "multi/sweep_api.hh"
#include "trace/packed_trace.hh"
#include "workload/suites.hh"

#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;

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

/** Run @p configs (one fused key) through one unsharded fused pass,
 *  once over the packed records and once over the MemRef span in
 *  place, and check every member against its direct simulation. */
void
expectFusedMatchesDirect(const std::vector<CacheConfig> &configs,
                         const VectorTrace &trace)
{
    const PackedTrace packed(trace);
    const auto check = [&](const auto *records) {
        FusedReplay engine(configs);
        engine.run(records, trace.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            SCOPED_TRACE(configs[c].fullName());
            expectIdentical(engine.result(c),
                            directResult(configs[c], trace));
        }
    };
    check(packed.data());
    check(trace.refs().data());
}

} // namespace

TEST(FusedReplay, SubEqualsBlockDegenerateCollapsesToDemand)
{
    // sub == block: one-bit masks — every miss is a block miss and a
    // load-forward fetch from sub-block 0 spans exactly one
    // sub-block, so the demand and load-forward members of the group
    // must produce identical results, and both must match direct.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const std::uint32_t word = suite.profile.wordSize;

    std::vector<CacheConfig> configs;
    configs.push_back(makeConfig(1024, 16, 16, word));
    {
        CacheConfig c = makeConfig(1024, 16, 16, word);
        c.fetch = FetchPolicy::LoadForward;
        configs.push_back(c);
    }
    ASSERT_EQ(CacheGeometry(configs[0]).subBlocksPerBlock(), 1u);
    ASSERT_EQ(fusedKeyOf(configs[0]), fusedKeyOf(configs[1]));

    const PackedTrace packed(*trace);
    FusedReplay engine(configs);
    engine.run(packed.data(), packed.size());
    expectIdentical(engine.result(0),
                    directResult(configs[0], *trace));
    expectIdentical(engine.result(1),
                    directResult(configs[1], *trace));
    // The degenerate collapse itself: one-sub load-forward IS demand
    // (every field but the config).
    SweepResult forward = engine.result(1);
    forward.config = configs[0];
    expectIdentical(engine.result(0), forward);
}

TEST(FusedReplay, FullWidth64SubBlockMasks)
{
    // 64 sub-blocks per block exercises the full mask width,
    // including the span == 64 guard in the load-forward fetch (a
    // plain (1 << 64) - 1 would be undefined).
    const std::uint32_t word = 2;
    std::vector<CacheConfig> configs;
    for (const FetchPolicy fetch :
         {FetchPolicy::Demand, FetchPolicy::LoadForward,
          FetchPolicy::LoadForwardOptimized}) {
        CacheConfig c = makeConfig(4096, 128, 2, word);
        c.fetch = fetch;
        configs.push_back(c);
    }
    ASSERT_EQ(CacheGeometry(configs[0]).subBlocksPerBlock(), 64u);

    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    expectFusedMatchesDirect(configs, *trace);
}

TEST(FusedReplay, LoadForwardStopsAtTheBlocksLastSubBlock)
{
    // Every read misses on the LAST sub-block of its block: the
    // load-forward span is exactly one sub-block and must NOT wrap
    // into the sequentially-next block (that behaviour is
    // PrefetchNextOnMiss, which is fused-ineligible). Walk enough
    // distinct blocks to force evictions and re-fetches too.
    auto trace = std::make_shared<VectorTrace>("last-sub");
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr base = 0; base < 16 * 1024; base += 16) {
            trace->append(base + 8, RefKind::DataRead, 2);
            if (base % 64 == 0)
                trace->append(base + 8, RefKind::DataWrite, 2);
        }
    }

    std::vector<CacheConfig> configs;
    for (const FetchPolicy fetch :
         {FetchPolicy::Demand, FetchPolicy::LoadForward,
          FetchPolicy::LoadForwardOptimized}) {
        CacheConfig c = makeConfig(1024, 16, 8, 2);
        c.fetch = fetch;
        configs.push_back(c);
    }
    expectFusedMatchesDirect(configs, *trace);

    // Same trace through a copy-back / no-allocate variant group, so
    // the write-side mask planes see the boundary case too.
    for (CacheConfig &c : configs) {
        c.write = WritePolicy::CopyBack;
        c.writeAllocate = false;
    }
    expectFusedMatchesDirect(configs, *trace);
}

TEST(FusedReplay, GroupsSplitAtTheConfigBitmaskWidth)
{
    // The grain-validity planes address members through a 64-bit
    // bitmask, so fusedGroups must split a key with more than 64
    // members — and every split group must still price exactly.
    const std::uint32_t word = 2;
    std::vector<CacheConfig> variants;
    for (std::uint32_t sub = 2; sub <= 32; sub *= 2) {
        for (const FetchPolicy fetch :
             {FetchPolicy::Demand, FetchPolicy::LoadForward}) {
            CacheConfig c = makeConfig(1024, 32, sub, word);
            c.fetch = fetch;
            variants.push_back(c);
        }
    }
    std::vector<CacheConfig> configs;
    while (configs.size() < 70)
        configs.push_back(variants[configs.size() % variants.size()]);

    std::vector<std::size_t> all(configs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto groups = fusedGroups(configs, all);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].size(), kMaxGroupConfigs);
    EXPECT_EQ(groups[1].size(), 70u - kMaxGroupConfigs);

    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 5000);
    const PackedTrace packed(*trace);
    for (const auto &group : groups) {
        std::vector<CacheConfig> members;
        for (const std::size_t c : group)
            members.push_back(configs[c]);
        FusedReplay engine(members);
        engine.run(packed.data(), packed.size());
        for (std::size_t k = 0; k < group.size(); ++k) {
            SCOPED_TRACE(members[k].fullName());
            expectIdentical(engine.result(k),
                            directResult(members[k], *trace));
        }
    }
}

TEST(FusedReplay, ShardedFusedPassesMergeExactly)
{
    // Fused composes with set-sharding: per-shard group passes over
    // each shard's filtered records must merge bit-identically to
    // direct.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);
    const std::uint32_t word = suite.profile.wordSize;

    std::vector<CacheConfig> configs;
    for (const std::uint32_t sub : {8u, 16u}) {
        for (const FetchPolicy fetch :
             {FetchPolicy::Demand, FetchPolicy::LoadForward}) {
            CacheConfig c = makeConfig(8192, 32, sub, word);
            c.fetch = fetch;
            configs.push_back(c);
        }
    }

    // Both record layouts: the shard filter packs MemRef records as
    // it compacts them.
    const auto check = [&](const auto *records) {
        for (const std::uint32_t shards : {2u, 4u, 8u}) {
            FusedReplay engine(configs, shards);
            for (std::uint32_t s = 0; s < shards; ++s)
                engine.runShard(s, records, trace->size());
            for (std::size_t c = 0; c < configs.size(); ++c) {
                SCOPED_TRACE(configs[c].fullName());
                expectIdentical(engine.result(c),
                                directResult(configs[c], *trace));
            }
        }
    };
    check(packed.data());
    check(trace->refs().data());
}

TEST(FusedReplay, PlannerRoutesSiblingGroupsFused)
{
    // Auto routing: a sector sibling group rides the fused engine
    // (group size >= 2), a lone sector config stays batched, a
    // Random-replacement config is ineligible — and the routed
    // results are bit-identical to DirectOnly.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 10000);
    const std::uint32_t word = suite.profile.wordSize;

    std::vector<CacheConfig> configs;
    configs.push_back(makeConfig(4096, 32, 8, word));  // group A
    {
        CacheConfig c = makeConfig(4096, 32, 8, word);
        c.fetch = FetchPolicy::LoadForward;  // group A sibling
        configs.push_back(c);
    }
    configs.push_back(makeConfig(4096, 64, 16, word));  // singleton
    {
        CacheConfig c = makeConfig(4096, 32, 16, word);
        c.replacement = ReplacementPolicy::Random;  // ineligible
        configs.push_back(c);
    }

    const SweepPlan plan = planSweep(configs, SweepEngine::Auto, {}, 2);
    EXPECT_EQ(plan.route[0], SweepRoute::Fused);
    EXPECT_EQ(plan.route[1], SweepRoute::Fused);
    EXPECT_NE(plan.route[2], SweepRoute::Fused)
        << "singletons stay batched";
    EXPECT_NE(plan.route[3], SweepRoute::Fused)
        << "Random is fused-ineligible";
    EXPECT_EQ(std::count(plan.route.begin(), plan.route.end(),
                         SweepRoute::Fused),
              2);

    ThreadPool pool(2);
    SweepRequest request;
    request.traces = {trace};
    request.configs = configs;
    request.pool = &pool;
    const SweepReport routed = runSweep(request);
    request.engine = SweepEngine::DirectOnly;
    const SweepReport reference = runSweep(request);
    expectIdenticalGrid(routed.perTrace, reference.perTrace);
}
