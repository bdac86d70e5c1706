// The differential oracle deliberately drives the raw engine entry
// points against each other.

#include "check/differential.hh"

#include <algorithm>
#include <sstream>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "cache/split_cache.hh"
#include "multi/batch_replay.hh"
#include "multi/fused_replay.hh"
#include "multi/shard_replay.hh"
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

    // Split I/D points take their own engine stack: the oracle is a
    // pair of naive ReferenceCache halves partitioned by reference
    // kind, diffed per side against the SplitCache pair, and the
    // parallel routing layer must reproduce the combined summary bit
    // for bit under both engine modes. The batch, shard and fused
    // engines are unified-only, so the main path below keeps covering
    // them.
    if (config.partition == CachePartition::SplitID) {
        const CacheConfig half = evenSplitHalf(config);
        ReferenceCache i_oracle(half);
        ReferenceCache d_oracle(half);
        for (const MemRef &ref : refs)
            (ref.isInstruction() ? i_oracle : d_oracle).access(ref);
        i_oracle.finalize();
        d_oracle.finalize();
        ReferenceStats i_want = i_oracle.stats();
        const ReferenceStats d_want = d_oracle.stats();
        if (options.perturbReference)
            options.perturbReference(i_want);

        SplitCache split = makeEvenSplit(config);
        for (const MemRef &ref : refs)
            split.access(ref);
        split.finalizeResidencies();
        for (const std::string &line :
             diffStats(i_want, split.icache().stats()))
            report.diffs.push_back("split-i." + line);
        for (const std::string &line :
             diffStats(d_want, split.dcache().stats()))
            report.diffs.push_back("split-d." + line);

        const SweepResult direct_summary =
            summarizeSplit(config, split);
        const auto trace = packTrace(refs);
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
    const auto trace = packTrace(refs);
    const std::vector<CacheConfig> configs{config};
    diffSweepResult("sweep-direct",
                    sweepOne(config, trace, SweepEngine::DirectOnly),
                    direct_summary, report.diffs);
    diffSweepResult("sweep-auto",
                    sweepOne(config, trace, SweepEngine::Auto),
                    direct_summary, report.diffs);

    // Engine 4: the batched replay kernels standalone, driven with a
    // deliberately awkward tiling (tile of 1 config, 7-record chunks)
    // so chunk-boundary handling is exercised on every case — full
    // statistics against the oracle, summary against the direct run.
    {
        BatchReplay batch(configs, 1, 7);
        batch.run(PackedTrace(*trace));
        for (const std::string &line :
             diffStats(want, batch.cache(0).stats()))
            report.diffs.push_back("batch." + line);
        diffSweepResult("batch", batch.results()[0], direct_summary,
                        report.diffs);
    }

    // Engine 5: the set-sharded replay engine, when eligible — the
    // per-shard filtered sub-traces must merge bit-identically to the
    // direct run at awkward shard counts (the smallest, the largest
    // legal one, and a mid-size split when the geometry allows it).
    if (shardEligible(config)) {
        const CacheGeometry geom(config);
        const std::uint32_t max_shards =
            std::min<std::uint32_t>(geom.numSets(), kMaxShards);
        if (max_shards >= 2) {
            std::vector<std::uint32_t> counts{2};
            if (max_shards >= 8)
                counts.push_back(max_shards / 2);
            if (max_shards > 2)
                counts.push_back(max_shards);
            const PackedTrace packed(*trace);
            for (const std::uint32_t num_shards : counts) {
                ShardReplay engine(config, num_shards);
                for (std::uint32_t s = 0; s < num_shards; ++s)
                    engine.runShard(s, packed.data(), packed.size());
                diffSweepResult(
                    "shard" + std::to_string(num_shards),
                    engine.result(), direct_summary, report.diffs);
            }
        }
    }

    // Engine 6: the fused group engine, when eligible — the config
    // rides one group pass alongside deliberately awkward companion
    // siblings (same FusedKey, different sub-block size and fetch
    // policy), so the per-config mask planes are exercised against
    // each other; every member must match its own direct run bit for
    // bit, unsharded and at awkward shard counts.
    if (fusedEligible(config)) {
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
        for (std::size_t m = 1; m < group.size(); ++m) {
            Cache member(group[m]);
            for (const MemRef &ref : refs)
                member.access(ref);
            member.finalizeResidencies();
            member_summaries.push_back(summarizeCache(member));
        }

        const PackedTrace packed(*trace);
        {
            FusedReplay fused(group);
            fused.run(packed.data(), packed.size());
            for (std::size_t m = 0; m < group.size(); ++m) {
                diffSweepResult("fused.m" + std::to_string(m),
                                fused.result(m), member_summaries[m],
                                report.diffs);
            }
        }

        const CacheGeometry geom(config);
        const std::uint32_t max_shards =
            std::min<std::uint32_t>(geom.numSets(), kMaxShards);
        if (max_shards >= 2) {
            std::vector<std::uint32_t> counts{2};
            if (max_shards > 2)
                counts.push_back(max_shards);
            for (const std::uint32_t num_shards : counts) {
                FusedReplay fused(group, num_shards);
                for (std::uint32_t s = 0; s < num_shards; ++s)
                    fused.runShard(s, packed.data(), packed.size());
                for (std::size_t m = 0; m < group.size(); ++m) {
                    diffSweepResult(
                        "fused-shard" + std::to_string(num_shards) +
                            ".m" + std::to_string(m),
                        fused.result(m), member_summaries[m],
                        report.diffs);
                }
            }
        }
    }

    return report;
}

} // namespace occsim
