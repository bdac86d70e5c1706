#include "multi/sweep_plan.hh"

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

namespace {

std::vector<CacheConfig>
selectConfigs(const std::vector<CacheConfig> &configs,
              const std::vector<std::size_t> &indices)
{
    std::vector<CacheConfig> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices)
        out.push_back(configs[i]);
    return out;
}

/** One trace's inputs for one execution of a plan. */
struct TraceInput
{
    const VectorTrace *refs = nullptr;  ///< null for packed input
    std::shared_ptr<const PackedTrace> packed;
    std::uint64_t limit = 0;
    std::size_t recordBytes = 0;
};

/** Drive a Cache or SplitCache over @p in's first limit records. */
template <class Sim>
void
replayDirect(Sim &sim, const TraceInput &in)
{
    if (in.refs != nullptr) {
        const std::vector<MemRef> &refs = in.refs->refs();
        for (std::uint64_t r = 0; r < in.limit; ++r)
            sim.access(refs[r]);
    } else {
        sim.replayPacked(in.packed->data(),
                         static_cast<std::size_t>(in.limit));
    }
    sim.finalizeResidencies();
}

} // namespace

const char *
routeName(SweepRoute route)
{
    switch (route) {
    case SweepRoute::Fused:
        return "fused";
    case SweepRoute::Shard:
        return "shard";
    case SweepRoute::Batch:
        return "batch";
    case SweepRoute::Direct:
        return "direct";
    case SweepRoute::Split:
        return "split";
    }
    return "unknown";
}

std::vector<std::vector<std::size_t>>
fusableGroups(const std::vector<CacheConfig> &configs,
              const std::vector<std::size_t> &candidates)
{
    std::vector<std::vector<std::size_t>> groups =
        fusedGroups(configs, candidates);
    std::erase_if(groups, [](const auto &g) { return g.size() < 2; });
    return groups;
}

SweepPlan
planSweep(const std::vector<CacheConfig> &configs, SweepEngine engine,
          const std::vector<std::uint64_t> &trace_limits, unsigned threads)
{
    occsim_assert(!configs.empty(), "sweep needs at least one config");
    SweepPlan plan;
    plan.configs = configs;
    plan.route.assign(configs.size(), SweepRoute::Batch);

    // Trace-independent routes first: split pairs and DirectOnly
    // caches. The rest are candidates for fused, shard or batch.
    const bool optimized = engine != SweepEngine::DirectOnly;
    std::vector<std::size_t> candidates;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SweepRoute &route = plan.route[c];
        if (configs[c].partition == CachePartition::SplitID) {
            route = SweepRoute::Split;
            plan.splitIndex.push_back(c);
        } else if (!optimized) {
            route = SweepRoute::Direct;
            plan.directIndex.push_back(c);
        } else {
            candidates.push_back(c);
        }
    }
    plan.fusedGroups = fusableGroups(configs, candidates);
    for (const auto &group : plan.fusedGroups) {
        for (const std::size_t c : group)
            plan.route[c] = SweepRoute::Fused;
    }
    std::erase_if(candidates, [&](std::size_t c) {
        return plan.route[c] == SweepRoute::Fused;
    });

    if (engine == SweepEngine::CrossCheck) {
        // Shadow every 4th config (at least one) on the direct engine.
        // Split pairs already run on it — shadowing one would compare
        // the same code against itself.
        const std::size_t stride =
            std::max<std::size_t>(1, configs.size() / 4);
        for (std::size_t c = 0; c < configs.size(); c += stride) {
            if (plan.route[c] != SweepRoute::Split)
                plan.shadowIndex.push_back(c);
        }
    }

    plan.traces.resize(trace_limits.size());

    // The unsharded task inventory of the whole sweep: batch tiles and
    // fused passes over every trace. When that alone saturates the
    // pool, task parallelism wins and sharding only adds merge
    // overhead (see shouldShard). Tiles count at the default width
    // here, so the pool-sized tiles below never change a route.
    const std::size_t competing =
        plan.traces.size() *
        ((candidates.size() + BatchReplay::kDefaultTileConfigs - 1) /
             BatchReplay::kDefaultTileConfigs +
         plan.fusedGroups.size());
    const ShardMode mode = shardModeFromEnv();
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        TracePlan &tp = plan.traces[t];
        const auto shard_count = [&](const CacheConfig &config) {
            return shouldShard(mode, config, threads, trace_limits[t],
                               competing)
                       ? planShardCount(config, threads)
                       : 1u;
        };

        // A fused group shards as a unit: every member shares the
        // grouping geometry, so one member's verdict is the group's.
        for (const auto &group : plan.fusedGroups) {
            tp.fused.push_back(std::make_unique<FusedReplay>(
                selectConfigs(configs, group),
                shard_count(configs[group.front()])));
        }
        for (const std::size_t c : candidates) {
            const std::uint32_t shards = shard_count(configs[c]);
            if (shards == 1) {
                tp.batchIndex.push_back(c);
                continue;
            }
            plan.route[c] = SweepRoute::Shard;
            tp.shardIndex.push_back(c);
            tp.shards.push_back(
                std::make_unique<ShardReplay>(configs[c], shards));
        }
        for (const std::size_t c : plan.directIndex)
            tp.direct.push_back(std::make_unique<Cache>(configs[c]));
        for (const std::size_t c : plan.splitIndex) {
            const CacheConfig half = evenSplitHalf(configs[c]);
            tp.splits.push_back(std::make_unique<SplitCache>(half, half));
        }
        for (const std::size_t c : plan.shadowIndex)
            tp.shadows.push_back(std::make_unique<Cache>(configs[c]));
    }

    // Batch tiles sized to the pool: narrow enough that the plan's
    // batch runs spread over every worker, never wider than the
    // L2-friendly default. One long trace's few unshardable configs
    // then run one per worker instead of serially in one tile.
    std::size_t batch_runs = 0;
    for (const TracePlan &tp : plan.traces)
        batch_runs += tp.batchIndex.size();
    const std::size_t workers = std::max(threads, 1u);
    const std::size_t tile_configs = std::clamp<std::size_t>(
        (batch_runs + workers - 1) / workers, 1,
        BatchReplay::kDefaultTileConfigs);

    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        TracePlan &tp = plan.traces[t];
        if (!tp.batchIndex.empty()) {
            tp.batch = std::make_unique<BatchReplay>(
                selectConfigs(configs, tp.batchIndex), tile_configs);
        }

        // The one task order.
        const auto add = [&](PlanTask::Kind kind, std::size_t engines,
                             const auto &parts) {
            for (std::size_t e = 0; e < engines; ++e) {
                for (std::size_t p = 0; p < parts(e); ++p) {
                    plan.tasks.push_back(
                        {kind, static_cast<std::uint32_t>(t),
                         static_cast<std::uint32_t>(e),
                         static_cast<std::uint32_t>(p)});
                }
            }
        };
        const auto one = [](std::size_t) { return std::size_t{1}; };
        add(PlanTask::Kind::BatchTile, tp.batch != nullptr,
            [&](std::size_t) { return tp.batch->numTiles(); });
        add(PlanTask::Kind::Fused, tp.fused.size(), [&](std::size_t g) {
            return std::size_t{tp.fused[g]->numShards()};
        });
        add(PlanTask::Kind::Shard, tp.shards.size(), [&](std::size_t k) {
            return std::size_t{tp.shards[k]->numShards()};
        });
        add(PlanTask::Kind::Direct, tp.direct.size(), one);
        add(PlanTask::Kind::Split, tp.splits.size(), one);
        add(PlanTask::Kind::Shadow, tp.shadows.size(), one);
    }
    return plan;
}

std::uint64_t
runSweepPlan(SweepPlan &plan,
             const std::vector<std::shared_ptr<const VectorTrace>> &traces,
             const std::vector<std::shared_ptr<const PackedTrace>> &packed,
             std::uint64_t max_refs, ThreadPool &pool)
{
    const bool memrefs = !traces.empty();
    occsim_assert(!memrefs || packed.empty(),
                  "MemRef and packed traces are mutually exclusive");
    occsim_assert((memrefs ? traces.size() : packed.size()) ==
                      plan.traces.size(),
                  "plan covers %zu traces", plan.traces.size());

    // Decode each trace once for the replay engines (memoized across
    // engines and sweeps sharing the trace). Sharded tasks filter
    // their own set shard from it as they run.
    std::vector<TraceInput> inputs(plan.traces.size());
    std::uint64_t refs = 0;
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const TracePlan &tp = plan.traces[t];
        TraceInput &in = inputs[t];
        if (memrefs) {
            in.refs = traces[t].get();
            in.limit = refLimit(in.refs->refs().size(), max_refs);
            in.recordBytes = sizeof(MemRef);
            if (tp.batch != nullptr || !tp.fused.empty() ||
                !tp.shards.empty())
                in.packed = packedTraceShared(traces[t]);
        } else {
            in.packed = packed[t];
            in.limit = refLimit(in.packed->size(), max_refs);
            in.recordBytes = sizeof(PackedRecord);
        }
        refs += in.limit;
    }

    pool.parallelFor(plan.tasks.size(), [&](std::size_t i) {
        const PlanTask &task = plan.tasks[i];
        TracePlan &tp = plan.traces[task.trace];
        const TraceInput &in = inputs[task.trace];
        switch (task.kind) {
        case PlanTask::Kind::BatchTile:
            tp.batch->runTile(task.part, *in.packed, max_refs);
            break;
        case PlanTask::Kind::Fused: {
            FusedReplay &eng = *tp.fused[task.engine];
            if (eng.numShards() == 1)
                eng.run(in.packed->data(), in.limit);
            else
                eng.runShard(task.part, in.packed->data(), in.limit);
            break;
        }
        case PlanTask::Kind::Shard:
            tp.shards[task.engine]->runShard(
                task.part, in.packed->data(), in.limit);
            break;
        case PlanTask::Kind::Direct:
        case PlanTask::Kind::Split: {
            OCCSIM_TELEM_STAGE("engine.direct");
            if (task.kind == PlanTask::Kind::Direct)
                replayDirect(*tp.direct[task.engine], in);
            else
                replayDirect(*tp.splits[task.engine], in);
            OCCSIM_TELEM_COUNT("engine.direct.refs", in.limit);
            OCCSIM_TELEM_COUNT("engine.direct.bytes",
                               in.limit * in.recordBytes);
            break;
        }
        case PlanTask::Kind::Shadow: {
            OCCSIM_TELEM_STAGE("engine.shadow");
            replayDirect(*tp.shadows[task.engine], in);
            OCCSIM_TELEM_COUNT("engine.shadow.refs", in.limit);
            OCCSIM_TELEM_COUNT("engine.shadow.bytes",
                               in.limit * in.recordBytes);
            break;
        }
        }
    });

    // CrossCheck: the optimized engines must reproduce every shadow's
    // summary bit for bit, on this very trace.
    if (plan.shadowIndex.empty())
        return refs;
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const std::vector<SweepResult> fast = planResults(plan, t);
        for (std::size_t s = 0; s < plan.shadowIndex.size(); ++s) {
            const std::size_t c = plan.shadowIndex[s];
            if (!sameSweepResult(
                    fast[c], summarizeCache(*plan.traces[t].shadows[s]))) {
                fatal("cross-check mismatch: %s engine disagrees "
                      "with direct simulation for config %s on trace %s",
                      routeName(plan.route[c]),
                      plan.configs[c].fullName().c_str(),
                      (memrefs ? traces[t]->name()
                               : packed[t]->name())
                          .c_str());
            }
        }
        OCCSIM_TELEM_COUNT("cross_check.samples", plan.shadowIndex.size());
    }
    return refs;
}

std::vector<SweepResult>
planResults(const SweepPlan &plan, std::size_t t)
{
    occsim_assert(t < plan.traces.size(), "trace %zu was not planned", t);
    const TracePlan &tp = plan.traces[t];
    std::vector<SweepResult> out(plan.configs.size());
    const auto place = [&](const std::vector<std::size_t> &index,
                           const std::vector<SweepResult> &results) {
        for (std::size_t k = 0; k < results.size(); ++k)
            out[index[k]] = results[k];
    };
    if (tp.batch != nullptr)
        place(tp.batchIndex, tp.batch->results());
    for (std::size_t g = 0; g < tp.fused.size(); ++g)
        place(plan.fusedGroups[g], tp.fused[g]->results());
    for (std::size_t k = 0; k < tp.shards.size(); ++k)
        out[tp.shardIndex[k]] = tp.shards[k]->result();
    for (std::size_t j = 0; j < tp.direct.size(); ++j)
        out[plan.directIndex[j]] = summarizeCache(*tp.direct[j]);
    for (std::size_t k = 0; k < tp.splits.size(); ++k) {
        const std::size_t c = plan.splitIndex[k];
        out[c] = summarizeSplit(plan.configs[c], *tp.splits[k]);
    }
    return out;
}

ShardTelemetry
planShardTelemetry(const SweepPlan &plan)
{
    ShardTelemetry telem;
    for (const TracePlan &tp : plan.traces) {
        for (const auto &engine : tp.shards)
            telem.accumulate(*engine);
        for (const auto &engine : tp.fused) {
            if (engine->numShards() > 1)
                telem.accumulate(*engine);
        }
    }
    return telem;
}

} // namespace occsim
