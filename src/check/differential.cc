// The differential oracle deliberately drives the raw engine entry
// points against each other.

#include "check/differential.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "multi/fused_replay.hh"
#include "multi/sweep_plan.hh"
#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"

namespace occsim {

namespace {

/** Exact comparison of two SweepResults (@p label names the pair). */
void
diffSweepResult(const std::string &label, const SweepResult &got,
                const SweepResult &want, std::vector<std::string> &out)
{
    const auto field = [&](const char *name, auto got_v, auto want_v) {
        if (got_v != want_v) {
            std::ostringstream os;
            os.precision(17);
            os << label << "." << name << ": " << got_v
               << " != " << want_v;
            out.push_back(os.str());
        }
    };
    field("grossBytes", got.grossBytes, want.grossBytes);
    field("missRatio", got.missRatio, want.missRatio);
    field("warmMissRatio", got.warmMissRatio, want.warmMissRatio);
    field("trafficRatio", got.trafficRatio, want.trafficRatio);
    field("warmTrafficRatio", got.warmTrafficRatio,
          want.warmTrafficRatio);
    field("nibbleTrafficRatio", got.nibbleTrafficRatio,
          want.nibbleTrafficRatio);
    field("warmNibbleTrafficRatio", got.warmNibbleTrafficRatio,
          want.warmNibbleTrafficRatio);
    field("meanSubBlocksTouched", got.meanSubBlocksTouched,
          want.meanSubBlocksTouched);
    field("neverReferencedFraction", got.neverReferencedFraction,
          want.neverReferencedFraction);
}

/** One-trace sweep of @p config under @p engine through the planner
 *  and executor behind runSweep (whichever route the planner picks;
 *  no manifest record per case). */
SweepResult
sweepOne(const CacheConfig &config,
         const std::shared_ptr<const VectorTrace> &trace,
         SweepEngine engine)
{
    ThreadPool &pool = globalThreadPool();
    SweepPlan plan = planSweep({config}, engine, {trace->size()},
                               static_cast<unsigned>(pool.size()));
    runSweepPlan(plan, {trace}, {}, 0, pool);
    return planResults(plan, 0)[0];
}

/** Direct Cache::access run of @p config over @p refs, summarized. */
SweepResult
directSummary(const CacheConfig &config, const std::vector<MemRef> &refs)
{
    Cache cache(config);
    for (const MemRef &ref : refs)
        cache.access(ref);
    cache.finalizeResidencies();
    return summarizeCache(cache);
}

/** A config like @p config but of another block size whose set field
 *  holds @p config's own window at @p num_shards shards, so the two
 *  can share a shard tile: half the block first (its set field ends
 *  where @p config's does), then double. Empty when neither is a
 *  valid shape. */
std::optional<CacheConfig>
shardCompanion(const CacheConfig &config, std::uint32_t num_shards)
{
    for (const std::uint32_t block :
         {config.blockSize / 2, config.blockSize * 2}) {
        CacheConfig other = config;
        other.blockSize = block;
        other.subBlockSize =
            std::max(std::min(config.subBlockSize, block), block / 64);
        if (!validateConfig(other).empty())
            continue;
        if (ShardWindow{}.with(config).with(other).holds(
                floorLog2(num_shards)))
            return other;
    }
    return std::nullopt;
}

/** Awkward shard counts for @p config, when it is shard-eligible:
 *  the smallest, a mid-size split when the geometry allows one, and
 *  the largest legal count. */
std::vector<std::uint32_t>
awkwardShardCounts(const CacheConfig &config)
{
    if (!shardEligible(config))
        return {};
    const std::uint32_t max_shards = std::min<std::uint32_t>(
        CacheGeometry(config).numSets(), kMaxShards);
    std::vector<std::uint32_t> counts;
    if (max_shards >= 2)
        counts.push_back(2);
    if (max_shards >= 8)
        counts.push_back(max_shards / 2);
    if (max_shards > 2)
        counts.push_back(max_shards);
    return counts;
}

/** Copy a raw reference vector into a shareable VectorTrace. */
std::shared_ptr<const VectorTrace>
packTrace(const std::vector<MemRef> &refs)
{
    auto t = std::make_shared<VectorTrace>("diff");
    t->reserve(refs.size());
    for (const MemRef &ref : refs)
        t->append(ref.addr, ref.kind, ref.size);
    return t;
}

} // namespace

CaseReport
runDifferentialCase(const CacheConfig &config,
                    const std::vector<MemRef> &refs,
                    const DiffOptions &options)
{
    CaseReport report;

    // Engines below that take record spans run twice: from the packed
    // records (the corpus layout) and from the MemRef span in place
    // (the layout a sweep over VectorTraces replays). The label prefix
    // says which.
    const auto trace = packTrace(refs);
    const PackedTrace packed(*trace);
    const auto for_each_span = [&](const auto &check) {
        check(std::string(), packed.data());
        check(std::string("memref-"), refs.data());
    };

    // Split I/D points are two unified halves, each fed one reference
    // kind. Per side, a naive ReferenceCache half is the oracle for a
    // direct Cache half and for kind tiles (a one-shard tile and, for
    // shard-eligible halves, forced shard counts) at awkward 7-record
    // chunks. The sides' direct statistics sum into the summary both
    // sweep policies must reproduce bit for bit: under DirectOnly the
    // planner runs two direct half Caches, under Auto two kind tiles.
    if (config.partition == CachePartition::SplitID) {
        const CacheConfig half = evenSplitHalf(config);
        std::vector<std::uint32_t> counts = awkwardShardCounts(half);
        counts.insert(counts.begin(), 1);
        std::vector<CacheStats> sides;
        for (const RefStream stream : {RefStream::Ifetch, RefStream::Data}) {
            const std::string side =
                stream == RefStream::Ifetch ? "split-i" : "split-d";
            ReferenceCache oracle(half);
            Cache direct(half);
            for (const MemRef &ref : refs) {
                if (inStream(ref, stream)) {
                    oracle.access(ref);
                    direct.access(ref);
                }
            }
            oracle.finalize();
            direct.finalizeResidencies();
            ReferenceStats want = oracle.stats();
            if (stream == RefStream::Ifetch && options.perturbReference)
                options.perturbReference(want);
            for (const std::string &line : diffStats(want, direct.stats()))
                report.diffs.push_back(side + "." + line);
            sides.push_back(direct.stats());

            for_each_span([&](const std::string &span,
                              const auto *records) {
                for (const std::uint32_t shards : counts) {
                    TileReplay tile({half}, shards, 7, stream);
                    tile.run(records, refs.size());
                    const std::string label =
                        span + side + "-tile" + std::to_string(shards);
                    for (const std::string &line :
                         diffStats(want, tile.mergedStats(0)))
                        report.diffs.push_back(label + "." + line);
                }
            });
        }
        sides[0].mergeFrom(sides[1]);
        const SweepResult direct_summary =
            summarizeStats(config, 2 * CacheGeometry(half).grossBytes(),
                           sides[0]);
        diffSweepResult("split-sweep-direct",
                        sweepOne(config, trace, SweepEngine::DirectOnly),
                        direct_summary, report.diffs);
        diffSweepResult("split-sweep-auto",
                        sweepOne(config, trace, SweepEngine::Auto),
                        direct_summary, report.diffs);
        return report;
    }

    // Oracle: the naive reference model.
    ReferenceCache oracle(config);
    oracle.run(refs);
    oracle.finalize();
    ReferenceStats want = oracle.stats();
    if (options.perturbReference)
        options.perturbReference(want);

    // Engine 1: the direct Cache.
    Cache direct(config);
    for (const MemRef &ref : refs)
        direct.access(ref);
    direct.finalizeResidencies();
    for (const std::string &line : diffStats(want, direct.stats()))
        report.diffs.push_back("direct." + line);

    // The summary's residency pair must be the oracle's too: every
    // engine below is diffed against this summary.
    const SweepResult direct_summary = summarizeCache(direct);
    SweepResult oracle_summary = direct_summary;
    oracle_summary.meanSubBlocksTouched = want.meanSubBlocksTouched();
    oracle_summary.neverReferencedFraction = want.neverReferencedFraction(
        CacheGeometry(config).subBlocksPerBlock());
    diffSweepResult("direct.summary", direct_summary, oracle_summary,
                    report.diffs);

    // Engines 2 and 3: a one-trace sweep under DirectOnly and Auto.
    // Both must reproduce the direct engine's summary bit for bit.
    const std::vector<CacheConfig> configs{config};
    diffSweepResult("sweep-direct",
                    sweepOne(config, trace, SweepEngine::DirectOnly),
                    direct_summary, report.diffs);
    diffSweepResult("sweep-auto",
                    sweepOne(config, trace, SweepEngine::Auto),
                    direct_summary, report.diffs);

    // Engine 4: the tile engine standalone at deliberately awkward
    // 7-record chunks, so chunk-boundary handling is exercised on
    // every case. A one-shard tile of the config alone (the batch
    // route) takes any config; a shard-eligible config also rides
    // sharded tiles at awkward shard counts (the smallest, the
    // largest legal one, and a mid-size split when the geometry
    // allows it), with a companion of another block size whenever one
    // shares its window, so the tile's single filter pass per shard
    // is diffed for both members. The config's merged statistics must
    // equal the oracle's in full, and every member's summary its own
    // direct run's.
    struct Tile
    {
        std::uint32_t shards;
        std::vector<CacheConfig> configs;
        std::vector<SweepResult> want;
    };
    std::vector<Tile> tiles{{1, configs, {direct_summary}}};
    for (const std::uint32_t num_shards : awkwardShardCounts(config)) {
        Tile tile{num_shards, configs, {direct_summary}};
        if (const auto other = shardCompanion(config, num_shards)) {
            tile.configs.push_back(*other);
            tile.want.push_back(directSummary(*other, refs));
        }
        tiles.push_back(std::move(tile));
    }
    for_each_span([&](const std::string &span, const auto *records) {
        for (const Tile &tile : tiles) {
            TileReplay engine(tile.configs, tile.shards, 7);
            engine.run(records, refs.size());
            const std::string label =
                span + (tile.shards == 1
                            ? std::string("batch")
                            : "shard" + std::to_string(tile.shards));
            for (const std::string &line :
                 diffStats(want, engine.mergedStats(0)))
                report.diffs.push_back(label + "." + line);
            const std::vector<SweepResult> got = engine.results();
            for (std::size_t m = 0; m < got.size(); ++m) {
                diffSweepResult(label + (m == 0 ? "" : ".companion"),
                                got[m], tile.want[m], report.diffs);
            }
        }
    });

    // Engine 5: the fused group engine, when eligible — the config
    // rides one group pass alongside deliberately awkward companion
    // siblings (same FusedKey, different sub-block size and fetch
    // policy), so the per-config mask planes are exercised against
    // each other; every member must match its own direct run bit for
    // bit, unsharded and at awkward shard counts.
    if (shardEligible(config)) {
        std::vector<CacheConfig> group{config};
        const auto add_sibling = [&](std::uint32_t sub,
                                     FetchPolicy fetch) {
            CacheConfig sibling = config;
            sibling.subBlockSize = sub;
            sibling.fetch = fetch;
            for (const CacheConfig &member : group) {
                if (member.subBlockSize == sibling.subBlockSize &&
                    member.fetch == sibling.fetch)
                    return;
            }
            group.push_back(sibling);
        };
        // The extremes of the sub-block range under both fetch
        // families, plus the config's own geometry with the other
        // fetch — an intentionally lopsided group (mask widths 1 bit
        // and full-width in one pass). The fine end respects the
        // 64-sub-blocks-per-block engine limit.
        const std::uint32_t finest_sub =
            std::max(config.wordSize, config.blockSize / 64);
        add_sibling(finest_sub, FetchPolicy::Demand);
        add_sibling(finest_sub, FetchPolicy::LoadForward);
        add_sibling(config.blockSize,
                    FetchPolicy::LoadForwardOptimized);
        add_sibling(config.subBlockSize,
                    config.fetch == FetchPolicy::Demand
                        ? FetchPolicy::LoadForward
                        : FetchPolicy::Demand);

        std::vector<SweepResult> member_summaries;
        member_summaries.reserve(group.size());
        member_summaries.push_back(direct_summary);
        for (std::size_t m = 1; m < group.size(); ++m)
            member_summaries.push_back(directSummary(group[m], refs));

        std::vector<std::uint32_t> counts = awkwardShardCounts(config);
        counts.insert(counts.begin(), 1);
        for_each_span([&](const std::string &span, const auto *records) {
            for (const std::uint32_t num_shards : counts) {
                FusedReplay fused(group, num_shards);
                if (num_shards == 1) {
                    fused.run(records, refs.size());
                } else {
                    for (std::uint32_t s = 0; s < num_shards; ++s)
                        fused.runShard(s, records, refs.size());
                }
                const std::string label =
                    num_shards == 1
                        ? span + "fused"
                        : span + "fused-shard" +
                              std::to_string(num_shards);
                for (std::size_t m = 0; m < group.size(); ++m) {
                    diffSweepResult(label + ".m" + std::to_string(m),
                                    fused.result(m), member_summaries[m],
                                    report.diffs);
                }
            }
        });
    }

    return report;
}

} // namespace occsim
