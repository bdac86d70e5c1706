#include "multi/sweep_plan.hh"

#include <map>
#include <numeric>
#include <type_traits>
#include <variant>

#include "cache/cache_geometry.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

namespace {

/** Configs per one-shard tile at most: 8 caches per trace chunk keeps
 *  the chunk hot in L2 across the tile without blowing the per-cache
 *  state out of cache. */
constexpr std::size_t kDefaultTileConfigs = 8;

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

/** One trace's records for one execution of a plan: a VectorTrace's
 *  MemRef span or a packed trace's span, read in place, plus the
 *  number of records the sweep replays. */
struct TraceInput
{
    std::variant<const MemRef *, const PackedRecord *> records;
    std::uint64_t limit = 0;
};

/** The slots config @p c of @p configs takes: one on every record,
 *  or for a split I/D config one half per reference kind. */
std::vector<PlanSlot>
slotsOf(const std::vector<CacheConfig> &configs, std::size_t c)
{
    if (configs[c].partition == CachePartition::SplitID)
        return {{c, RefStream::Ifetch}, {c, RefStream::Data}};
    return {{c, RefStream::All}};
}

/** Drive @p cache over the @p stream records among the first @p n of
 *  @p refs, one record at a time; @return records fed. */
template <class Rec>
std::uint64_t
replayDirect(Cache &cache, RefStream stream, const Rec *refs,
             std::size_t n)
{
    std::uint64_t kept = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (!inStream(refs[r], stream))
            continue;
        if constexpr (std::is_same_v<Rec, MemRef>)
            cache.access(refs[r]);
        else
            cache.replayPacked(refs + r, 1);
        ++kept;
    }
    cache.finalizeResidencies();
    return kept;
}

/** Run one plan task over the first @p n of its trace's records. */
template <class Rec>
void
runTask(const PlanTask &task, const SweepPlan &plan, TracePlan &tp,
        const Rec *refs, std::size_t n)
{
    switch (task.kind) {
    case PlanTask::Kind::Tile:
        tp.tiles[task.engine]->runShard(task.part, refs, n);
        break;
    case PlanTask::Kind::Fused: {
        FusedReplay &eng = *tp.fused[task.engine];
        if (eng.numShards() == 1)
            eng.run(refs, n);
        else
            eng.runShard(task.part, refs, n);
        break;
    }
    case PlanTask::Kind::Direct:
    case PlanTask::Kind::Shadow: {
        const bool shadow = task.kind == PlanTask::Kind::Shadow;
        OCCSIM_TELEM_STAGE(shadow ? "engine.shadow" : "engine.direct");
        const std::uint64_t kept = replayDirect(
            *(shadow ? tp.shadows : tp.direct)[task.engine],
            (shadow ? plan.shadowIndex : plan.directIndex)[task.engine]
                .stream,
            refs, n);
        OCCSIM_TELEM_COUNT(shadow ? "engine.shadow.refs"
                                  : "engine.direct.refs",
                           kept);
        OCCSIM_TELEM_COUNT(shadow ? "engine.shadow.bytes"
                                  : "engine.direct.bytes",
                           n * sizeof(Rec));
        break;
    }
    }
}

/** One trace's per-config summaries, fed slot by slot: a whole
 *  config's slot is summarized alone, a split config's two halves
 *  are summed and summarized once both are in, at twice a half's
 *  gross size. */
struct SlotSummaries
{
    explicit SlotSummaries(const std::vector<CacheConfig> &all)
        : configs(all), out(all.size())
    {
    }

    const std::vector<CacheConfig> &configs;
    std::vector<SweepResult> out;
    std::map<std::size_t, CacheStats> halves;

    void add(const PlanSlot &slot, const CacheStats &stats)
    {
        const CacheConfig &config = configs[slot.config];
        if (slot.stream == RefStream::All) {
            out[slot.config] = summarizeStats(
                config, CacheGeometry(config).grossBytes(), stats);
            return;
        }
        const auto [half, first] = halves.try_emplace(slot.config, stats);
        if (first)
            return;
        half->second.mergeFrom(stats);
        out[slot.config] = summarizeStats(
            config, 2 * CacheGeometry(evenSplitHalf(config)).grossBytes(),
            half->second);
    }
};

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

    // The cache every slot of a config simulates: the config itself,
    // or for a split config its half.
    std::vector<CacheConfig> simulated = configs;
    for (CacheConfig &config : simulated) {
        if (config.partition == CachePartition::SplitID)
            config = evenSplitHalf(config);
    }

    // Trace-independent routes first: DirectOnly caches and fused
    // groups (unified configs only). The other slots are candidates
    // for shard or batch tiles.
    const bool optimized = engine != SweepEngine::DirectOnly;
    if (optimized) {
        std::vector<std::size_t> all(configs.size());
        std::iota(all.begin(), all.end(), 0);
        plan.fusedGroups = fusableGroups(configs, all);
    }
    for (const auto &group : plan.fusedGroups) {
        for (const std::size_t c : group)
            plan.route[c] = SweepRoute::Fused;
    }
    std::vector<PlanSlot> candidates;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (const PlanSlot &slot : slotsOf(configs, c)) {
            if (!optimized) {
                plan.route[c] = SweepRoute::Direct;
                plan.directIndex.push_back(slot);
            } else if (plan.route[c] != SweepRoute::Fused) {
                candidates.push_back(slot);
            }
        }
    }

    if (engine == SweepEngine::CrossCheck) {
        // Shadow every 4th config (at least one) on the direct engine.
        const std::size_t stride =
            std::max<std::size_t>(1, configs.size() / 4);
        for (std::size_t c = 0; c < configs.size(); c += stride) {
            for (const PlanSlot &slot : slotsOf(configs, c))
                plan.shadowIndex.push_back(slot);
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
        ((candidates.size() + kDefaultTileConfigs - 1) /
             kDefaultTileConfigs +
         plan.fusedGroups.size());
    const ShardMode mode = shardModeFromEnv();
    struct ShardTile
    {
        std::uint32_t shards;
        RefStream stream;
        ShardWindow window;
        std::vector<std::size_t> members;
    };
    // Per trace: its batch slots and its shard tiles.
    std::vector<std::vector<PlanSlot>> batch(plan.traces.size());
    std::vector<std::vector<ShardTile>> sharded(plan.traces.size());
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
        // Shard tiles: each slot joins the first tile of its shard
        // count and kind whose window still fits it, in
        // first-appearance order.
        std::vector<ShardTile> &tiles = sharded[t];
        for (const PlanSlot &slot : candidates) {
            const CacheConfig &config = simulated[slot.config];
            const std::uint32_t shards = shard_count(config);
            if (shards == 1) {
                batch[t].push_back(slot);
                continue;
            }
            plan.route[slot.config] = SweepRoute::Shard;
            auto tile = std::find_if(
                tiles.begin(), tiles.end(), [&](const ShardTile &open) {
                    return open.shards == shards &&
                           open.stream == slot.stream &&
                           open.window.with(config).holds(
                               floorLog2(shards));
                });
            if (tile == tiles.end())
                tile = tiles.insert(tiles.end(),
                                    {shards, slot.stream, {}, {}});
            tile->window = tile->window.with(config);
            tile->members.push_back(slot.config);
        }
        for (const PlanSlot &slot : plan.directIndex)
            tp.direct.push_back(
                std::make_unique<Cache>(simulated[slot.config]));
        for (const PlanSlot &slot : plan.shadowIndex)
            tp.shadows.push_back(
                std::make_unique<Cache>(simulated[slot.config]));
    }

    // Batch tiles sized to the pool: narrow enough that the plan's
    // batch runs spread over every worker, never wider than the
    // L2-friendly default. One long trace's few unshardable configs
    // then run one per worker instead of serially in one tile.
    std::size_t batch_runs = 0;
    for (const std::vector<PlanSlot> &batched : batch)
        batch_runs += batched.size();
    const std::size_t workers = std::max(threads, 1u);
    const std::size_t tile_configs = std::clamp<std::size_t>(
        (batch_runs + workers - 1) / workers, 1, kDefaultTileConfigs);

    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        TracePlan &tp = plan.traces[t];
        const auto add_tile = [&](std::vector<std::size_t> members,
                                  std::uint32_t shards,
                                  RefStream stream) {
            tp.tiles.push_back(std::make_unique<TileReplay>(
                selectConfigs(simulated, members), shards,
                kShardChunkRecords, stream));
            tp.tileIndex.push_back(std::move(members));
        };
        for (const RefStream stream :
             {RefStream::All, RefStream::Ifetch, RefStream::Data}) {
            std::vector<std::size_t> batched;
            for (const PlanSlot &slot : batch[t]) {
                if (slot.stream == stream)
                    batched.push_back(slot.config);
            }
            for (std::size_t b = 0; b < batched.size();
                 b += tile_configs) {
                const std::size_t end =
                    std::min(b + tile_configs, batched.size());
                add_tile({batched.begin() + b, batched.begin() + end}, 1,
                         stream);
            }
        }
        for (ShardTile &tile : sharded[t])
            add_tile(std::move(tile.members), tile.shards, tile.stream);

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
        add(PlanTask::Kind::Tile, tp.tiles.size(), [&](std::size_t k) {
            return std::size_t{tp.tiles[k]->numShards()};
        });
        add(PlanTask::Kind::Fused, tp.fused.size(), [&](std::size_t g) {
            return std::size_t{tp.fused[g]->numShards()};
        });
        add(PlanTask::Kind::Direct, tp.direct.size(), one);
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

    // Every engine reads each trace's records where they lie: no
    // whole-trace copy is made. Sharded tasks filter their own set
    // shard as they run.
    std::vector<TraceInput> inputs(plan.traces.size());
    std::uint64_t refs = 0;
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        TraceInput &in = inputs[t];
        if (memrefs) {
            const std::vector<MemRef> &records = traces[t]->refs();
            in.records = records.data();
            in.limit = refLimit(records.size(), max_refs);
        } else {
            in.records = packed[t]->data();
            in.limit = refLimit(packed[t]->size(), max_refs);
        }
        refs += in.limit;
    }

    pool.parallelFor(plan.tasks.size(), [&](std::size_t i) {
        const PlanTask &task = plan.tasks[i];
        const TraceInput &in = inputs[task.trace];
        std::visit(
            [&](const auto *records) {
                runTask(task, plan, plan.traces[task.trace], records,
                        static_cast<std::size_t>(in.limit));
            },
            in.records);
    });

    // CrossCheck: the optimized engines must reproduce every shadow's
    // summary bit for bit, on this very trace.
    if (plan.shadowIndex.empty())
        return refs;
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const std::vector<SweepResult> fast = planResults(plan, t);
        SlotSummaries want(plan.configs);
        for (std::size_t s = 0; s < plan.shadowIndex.size(); ++s)
            want.add(plan.shadowIndex[s], plan.traces[t].shadows[s]->stats());
        for (const PlanSlot &slot : plan.shadowIndex) {
            // A split config's halves are checked once, as a pair.
            if (slot.stream == RefStream::Data)
                continue;
            const std::size_t c = slot.config;
            if (!sameSweepResult(fast[c], want.out[c])) {
                fatal("cross-check mismatch: %s engine disagrees "
                      "with direct simulation for config %s on trace %s",
                      routeName(plan.route[c]),
                      plan.configs[c].fullName().c_str(),
                      (memrefs ? traces[t]->name()
                               : packed[t]->name())
                          .c_str());
            }
        }
        OCCSIM_TELEM_COUNT("cross_check.samples", shadowedConfigs(plan));
    }
    return refs;
}

std::vector<SweepResult>
planResults(const SweepPlan &plan, std::size_t t)
{
    occsim_assert(t < plan.traces.size(), "trace %zu was not planned", t);
    const TracePlan &tp = plan.traces[t];
    SlotSummaries summaries(plan.configs);
    for (std::size_t k = 0; k < tp.tiles.size(); ++k) {
        const TileReplay &tile = *tp.tiles[k];
        for (std::size_t m = 0; m < tile.size(); ++m)
            summaries.add({tp.tileIndex[k][m], tile.stream()},
                          tile.mergedStats(m));
    }
    for (std::size_t j = 0; j < tp.direct.size(); ++j)
        summaries.add(plan.directIndex[j], tp.direct[j]->stats());
    for (std::size_t g = 0; g < tp.fused.size(); ++g) {
        const std::vector<SweepResult> results = tp.fused[g]->results();
        for (std::size_t m = 0; m < results.size(); ++m)
            summaries.out[plan.fusedGroups[g][m]] = results[m];
    }
    return std::move(summaries.out);
}

std::size_t
shadowedConfigs(const SweepPlan &plan)
{
    return static_cast<std::size_t>(std::count_if(
        plan.shadowIndex.begin(), plan.shadowIndex.end(),
        [](const PlanSlot &slot) {
            return slot.stream != RefStream::Data;
        }));
}

ShardTelemetry
planShardTelemetry(const SweepPlan &plan)
{
    ShardTelemetry telem;
    for (const TracePlan &tp : plan.traces) {
        for (const auto &tile : tp.tiles) {
            if (tile->numShards() > 1)
                telem.accumulate(tile->shardRefs(), tile->size());
        }
        for (const auto &engine : tp.fused) {
            if (engine->numShards() > 1)
                telem.accumulate(engine->shardRefs(), 1);
        }
    }
    return telem;
}

} // namespace occsim
