/**
 * @file
 * Determinism tests for one-shard tiles, the batch route: PackedTrace
 * must round-trip the reference stream, and a one-shard TileReplay
 * must be bit-identical to direct Cache::access simulation for every
 * tile width, chunk size, record layout and thread count — the tiling
 * changes only the interleaving between independent caches, never
 * what any one cache observes — and to the independent ReferenceCache
 * for every policy combination.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/reference_cache.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "multi/tile_replay.hh"
#include "trace/packed_trace.hh"
#include "workload/suites.hh"

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

constexpr std::uint64_t kRefs = 30000;

/** The paper's sector/load-forward style grid: no two configs here
 *  share a fused group key, so Auto routes all of them to the batched
 *  engine. */
std::vector<CacheConfig>
sectorGrid(std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t block : {16u, 32u}) {
        for (std::uint32_t sub = word_size; sub < block; sub *= 2) {
            for (const FetchPolicy fetch :
                 {FetchPolicy::Demand, FetchPolicy::LoadForward}) {
                CacheConfig config =
                    makeConfig(1024, block, sub, word_size);
                config.fetch = fetch;
                configs.push_back(config);
            }
        }
    }
    return configs;
}

/** The Table 1 size x associativity grid at the standard 8-byte
 *  block (sub-block == block): net 64 B..8 KB x assoc 1/2/4/8. */
std::vector<CacheConfig>
sizeAssocGrid(std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (std::uint32_t net = 64; net <= 8192; net *= 2) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            CacheConfig config = makeConfig(net, 8, 8, word_size);
            config.assoc = assoc;
            configs.push_back(config);
        }
    }
    return configs;
}

/** LRU and FIFO side by side at sub-block == block, plus copy-back
 *  FIFO points (the write policy must stay free). */
std::vector<CacheConfig>
fifoLruGrid(std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t net : {1024u, 4096u}) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            for (const ReplacementPolicy repl :
                 {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
                CacheConfig c = makeConfig(net, 16, 16, word_size);
                c.assoc = assoc;
                c.replacement = repl;
                configs.push_back(c);
            }
        }
        CacheConfig c = makeConfig(net, 16, 16, word_size);
        c.replacement = ReplacementPolicy::FIFO;
        c.write = WritePolicy::CopyBack;
        configs.push_back(c);
    }
    return configs;
}

/** Direct reference simulation of @p configs over @p trace. */
std::vector<SweepResult>
directResults(const std::vector<CacheConfig> &configs,
              const VectorTrace &trace, std::uint64_t max_refs = 0)
{
    std::vector<SweepResult> out;
    const std::uint64_t limit =
        max_refs == 0
            ? trace.size()
            : std::min<std::uint64_t>(max_refs, trace.size());
    for (const CacheConfig &config : configs) {
        Cache cache(config);
        for (std::uint64_t r = 0; r < limit; ++r)
            cache.access(trace.refs()[r]);
        cache.finalizeResidencies();
        out.push_back(summarizeCache(cache));
    }
    return out;
}

/** @p stats, from @p config replayed over @p trace, must match the
 *  independent oracle on every counter, histogram and derived
 *  metric. */
void
expectMatchesOracle(const CacheConfig &config, const VectorTrace &trace,
                    const CacheStats &stats)
{
    ReferenceCache oracle(config);
    oracle.run(trace.refs());
    for (const std::string &line : diffStats(oracle.stats(), stats))
        ADD_FAILURE() << line;
}

/** One-shard tiles of @p width configs at @p chunk records per chunk
 *  (the way the planner cuts batch configs), each run over the first
 *  @p n of @p refs; summaries in config order. */
template <class Rec>
std::vector<SweepResult>
tiledResults(const std::vector<CacheConfig> &configs, std::size_t width,
             std::size_t chunk, const Rec *refs, std::size_t n)
{
    std::vector<SweepResult> out;
    for (std::size_t b = 0; b < configs.size(); b += width) {
        const std::size_t end = std::min(b + width, configs.size());
        TileReplay tile({configs.begin() + b, configs.begin() + end}, 1,
                        chunk);
        tile.run(refs, n);
        for (const SweepResult &result : tile.results())
            out.push_back(result);
    }
    return out;
}

} // namespace

TEST(PackedTrace, RecordsRoundTripTheReferenceStream)
{
    VectorTrace trace("round-trip");
    trace.append(0x1234, RefKind::DataRead, 2);
    trace.append(0xFFFFFFFCu, RefKind::DataWrite, 4);
    trace.append(0x0, RefKind::Ifetch, 2);

    const PackedTrace packed(trace);
    ASSERT_EQ(packed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const MemRef &ref = trace.refs()[i];
        EXPECT_EQ(packed[i].addr(), ref.addr);
        EXPECT_EQ(packed[i].isWrite(), ref.isWrite());
        EXPECT_EQ(packed[i].isInstruction(), ref.isInstruction());
    }
}

TEST(PackedTrace, SharedPackingIsMemoized)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 5000);
    const auto first = packedTraceShared(trace);
    const auto second = packedTraceShared(trace);
    EXPECT_EQ(first.get(), second.get())
        << "one decode per shared trace while a handle is alive";
    EXPECT_EQ(first->size(), trace->size());

    const auto longer = buildTraceShared(suite.traces.front(), 6000);
    EXPECT_NE(packedTraceShared(longer).get(), first.get());
}

TEST(TileReplay, BitIdenticalToDirectForAnyTiling)
{
    // Both record layouts: the packed span replays in place, the
    // MemRef span is packed chunk by chunk into the call's buffer —
    // awkward chunk sizes put chunk boundaries everywhere.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const auto configs = sectorGrid(suite.profile.wordSize);
    const auto expected = directResults(configs, *trace);
    const PackedTrace packed(*trace);

    const auto check = [&](const auto *records) {
        for (const std::size_t tile : {1u, 2u, 3u, 5u, 64u}) {
            for (const std::size_t chunk : {7u, 1000u, 1u << 20}) {
                SCOPED_TRACE(testing::Message()
                             << "tile " << tile << " chunk " << chunk);
                const auto actual = tiledResults(
                    configs, tile, chunk, records, trace->size());
                ASSERT_EQ(actual.size(), expected.size());
                for (std::size_t i = 0; i < expected.size(); ++i)
                    expectIdentical(actual[i], expected[i]);
            }
        }
    };
    check(packed.data());
    check(trace->refs().data());
}

TEST(TileReplay, EveryKernelMatchesTheReferenceCache)
{
    // All 16 (fetch x write x write-allocate) kernel instantiations,
    // chunked through a tile, against the independent oracle.
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);

    for (const FetchPolicy fetch :
         {FetchPolicy::Demand, FetchPolicy::LoadForward,
          FetchPolicy::LoadForwardOptimized,
          FetchPolicy::PrefetchNextOnMiss}) {
        for (const WritePolicy write :
             {WritePolicy::WriteThrough, WritePolicy::CopyBack}) {
            for (const bool allocate : {false, true}) {
                CacheConfig config = makeConfig(
                    512, 16, 4, suite.profile.wordSize);
                config.fetch = fetch;
                config.write = write;
                config.writeAllocate = allocate;

                SCOPED_TRACE(config.fullName());
                TileReplay batch({config}, 1, 257);
                batch.run(packed.data(), packed.size());
                expectMatchesOracle(config, *trace,
                                    batch.mergedStats(0));
            }
        }
    }
}

TEST(TileReplay, ReplacementAndAssocKernelsMatchTheReferenceCache)
{
    // The other two kernel dimensions: replacement policy (the LRU
    // stamp update is inlined into the kernels) x associativity
    // (1/2/4/8 get the match-mask way lookup, 16 exercises the
    // runtime-assoc fallback kernel).
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const PackedTrace packed(*trace);

    for (const ReplacementPolicy repl :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random}) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            CacheConfig config =
                makeConfig(512, 16, 4, suite.profile.wordSize);
            config.assoc = assoc;
            config.replacement = repl;
            config.fetch = FetchPolicy::LoadForward;
            // Copy-back: the victim choice also decides which dirty
            // words are written back.
            config.write = WritePolicy::CopyBack;

            SCOPED_TRACE(config.fullName());
            TileReplay batch({config}, 1, 513);
            batch.run(packed.data(), packed.size());
            expectMatchesOracle(config, *trace, batch.mergedStats(0));
        }
    }
}

TEST(TileReplay, RepeatedRunsAccumulateLikeDirect)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), 10000);
    const PackedTrace packed(*trace);
    CacheConfig config = makeConfig(256, 16, 4,
                                    suite.profile.wordSize);
    config.fetch = FetchPolicy::LoadForward;

    // One pass from each record layout.
    TileReplay batch({config}, 1, 999);
    batch.run(packed.data(), packed.size());
    batch.run(trace->refs().data(), trace->size());

    Cache direct(config);
    for (int pass = 0; pass < 2; ++pass) {
        for (const MemRef &ref : trace->refs())
            direct.access(ref);
        direct.finalizeResidencies();
    }
    expectIdentical(batch.results()[0], summarizeCache(direct));
}

TEST(TileReplay, ReplaysOnlyTheGivenPrefix)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const auto configs = sectorGrid(suite.profile.wordSize);
    const auto expected = directResults(configs, *trace, 500);

    const auto actual =
        tiledResults(configs, 3, 128, trace->refs().data(), 500);
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(actual[i], expected[i]);
}

TEST(TileReplay, AutoRoutingMatchesDirectOnlyForAnyThreadCount)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const std::uint32_t word = suite.profile.wordSize;
    // The paper grid mixes fused, batched and (sub == block) configs;
    // the size x assoc and FIFO/LRU grids are all sub == block.
    const std::vector<std::vector<CacheConfig>> grids{
        paperGrid(1024, word), sizeAssocGrid(word), fifoLruGrid(word)};

    for (const auto &configs : grids) {
        for (const unsigned threads : {1u, 2u, 7u}) {
            const SweepPlan plan =
                planSweep(configs, SweepEngine::Auto, {}, threads);
            EXPECT_GT(std::count(plan.route.begin(), plan.route.end(),
                                 SweepRoute::Batch),
                      0)
                << "every grid has configs outside any fused group";

            ThreadPool pool(threads);
            expectIdenticalGrid(
                sweepGrid({trace}, configs, &pool, SweepEngine::Auto),
                sweepGrid({trace}, configs, &pool,
                          SweepEngine::DirectOnly));
        }
    }
}

TEST(TileReplay, RunSweepAutoMatchesDirectOnlyAcrossTraces)
{
    const Suite suite = pdp11Suite();
    const auto configs = sectorGrid(suite.profile.wordSize);
    std::vector<std::shared_ptr<const VectorTrace>> traces;
    for (const WorkloadSpec &spec : suite.traces)
        traces.push_back(buildTraceShared(spec, 10000));

    ThreadPool pool(4);
    const auto expected =
        sweepGrid(traces, configs, &pool, SweepEngine::DirectOnly);
    const auto actual =
        sweepGrid(traces, configs, &pool, SweepEngine::Auto);

    expectIdenticalGrid(actual, expected);
}
