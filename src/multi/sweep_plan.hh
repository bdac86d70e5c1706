/**
 * @file
 * The sweep planner: the one place that decides how each config of an
 * exact single-cache sweep is priced, and the one executor that runs
 * the decision.
 *
 * planSweep() is pure in its inputs — configs, engine policy, per-trace
 * reference limits and pool width (plus the OCCSIM_SHARD override it
 * reads) — and returns a SweepPlan: every config's route, the engine
 * instances for each trace, and one flat task list in one fixed
 * order. Routing, in priority order:
 *
 *  - direct       every config under SweepEngine::DirectOnly, one
 *                 plain Cache per (trace, slot);
 *  - fused        groups of >= 2 configs sharing a FusedKey
 *                 (fusableGroups), one FusedReplay per (trace, group);
 *  - shard        the remaining configs shouldShard picks on a trace,
 *                 one sharded TileReplay per (trace, shard tile): each
 *                 config joins the first tile of its shard count whose
 *                 shard window still picks whole sets of every member
 *                 (ShardWindow), so one filter pass per shard serves
 *                 the whole tile;
 *  - batch        the rest, in one-shard TileReplays.
 *
 * A config is one slot (PlanSlot) on every record, except that a
 * CachePartition::SplitID config is two: one evenSplitHalf fed the
 * instruction fetches and one fed the data references. Each half is
 * an ordinary unified cache, so it takes the direct, shard or batch
 * route like any other, on a tile of its own kind (a tile never
 * mixes kinds: its filter keeps one RefStream). Halves never fuse —
 * a fused pass feeds every record. planResults sums a split config's
 * two halves (an exact integer merge) and summarizes the total once
 * at twice a half's gross size.
 *
 * The shard verdict is per trace (lengths differ) and weighs the whole
 * sweep's unsharded task count — batch tiles and fused passes over
 * every trace — so a request routes the same way whichever policy
 * (Auto or CrossCheck) runs it. A fused group shards as a unit and
 * keeps the route "fused".
 *
 * Every trace's batch configs are cut, in order, into one-shard tiles
 * of clamp(ceil(R / threads), 1, 8) configs, R being the plan's
 * batch-routed (trace, config) runs: a grid wide enough to fill the
 * pool keeps the L2-friendly 8-config tile, and a few batch configs
 * on one long trace get a tile (a pool task) each instead of one
 * serial tile. Tiles keep one reference kind each: all-record tiles
 * first, then ifetch-half and data-half tiles. A trace's tile list
 * holds its one-shard tiles, then its shard tiles.
 *
 * runSweepPlan() executes a plan over the traces it was planned for,
 * given either as MemRef traces or as packed records (the plan is the
 * same for both). Every engine reads the records where they lie, so
 * a sweep makes no whole-trace copy. Every task touches only its own
 * engine, cache, or tile shard, so results are bit-identical to
 * sequential per-config simulation however the pool schedules them.
 * Running the same plan again feeds every engine the next trace as
 * if the traces were concatenated.
 */

#ifndef OCCSIM_MULTI_SWEEP_PLAN_HH
#define OCCSIM_MULTI_SWEEP_PLAN_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "multi/fused_replay.hh"
#include "multi/tile_replay.hh"
#include "util/thread_pool.hh"

namespace occsim {

/** Engine selection policy for sweeps. */
enum class SweepEngine : std::uint8_t {
    /** Fused / set-sharded / batched replay for every unified
     *  config (the default). */
    Auto = 0,
    /** Direct per-config Cache simulation for every config. */
    DirectOnly = 1,
    /**
     * Auto routing plus a runtime differential check: a sampled
     * subset of the configs (every optimized engine) is
     * shadow-simulated on the direct Cache engine as extra pool tasks,
     * and after each run the optimized engine's summaries must match
     * the shadows bit for bit — any divergence is a fatal error naming
     * the config. The belt to occsim-fuzz's suspenders: it validates
     * the routing on the real workload actually being swept, at a
     * bounded (~25% of configs) overhead.
     */
    CrossCheck = 2,
    /**
     * SMARTS-style statistical sampling (multi/sample_replay.hh):
     * systematic measurement units with functional warming between
     * them, reported as per-metric estimates with standard errors
     * and 95% CIs on SweepResult::sampled. NEVER auto-routed — the
     * exact engines stay the default; opting in is the caller
     * declaring that estimates (10-100x cheaper on long traces) are
     * acceptable. Knobs in SweepRequest::sample.
     */
    Sampled = 3,
};

/** How one config of a planned sweep is priced. */
enum class SweepRoute : std::uint8_t {
    Fused,
    Shard,
    Batch,
    Direct,
};

/** @return the manifest name of @p route ("fused", "shard", "batch",
 *  "direct"). */
const char *routeName(SweepRoute route);

/** References one trace of @p size contributes under @p max_refs
 *  (0 = whole trace). */
inline std::uint64_t
refLimit(std::uint64_t size, std::uint64_t max_refs)
{
    return max_refs == 0 ? size : std::min(max_refs, size);
}

/**
 * The fused groups among @p candidates: the fusedGroups partition
 * with the singletons dropped (a lone config gains nothing from the group pass
 * but still pays the plane indirection). The planner fuses exactly
 * these; the server keeps each group inside one tile with them.
 */
std::vector<std::vector<std::size_t>>
fusableGroups(const std::vector<CacheConfig> &configs,
              const std::vector<std::size_t> &candidates);

/** One cache of a plan: grid config @c config fed the records
 *  @c stream keeps (All for a unified config; a split config has an
 *  Ifetch and a Data slot, each simulating its evenSplitHalf). */
struct PlanSlot
{
    std::size_t config = 0;
    RefStream stream = RefStream::All;

    bool operator==(const PlanSlot &) const = default;
};

/** The engine instances pricing one trace of a plan. Entry k of each
 *  per-slot list simulates the slot named by the matching index list
 *  (the plan-wide ones unless noted). */
struct TracePlan
{
    std::vector<std::unique_ptr<FusedReplay>> fused;
    /** One-shard (batch) tiles, then sharded ones. */
    std::vector<std::unique_ptr<TileReplay>> tiles;
    /** This trace's config indices per tile, in member order (a
     *  member is the tile's stream() slot of that config). */
    std::vector<std::vector<std::size_t>> tileIndex;
    std::vector<std::unique_ptr<Cache>> direct;
    std::vector<std::unique_ptr<Cache>> shadows;
};

/** One schedulable unit of a plan: shard @p part of engine slot
 *  @p engine (0 for whole-engine tasks) on trace @p trace. */
struct PlanTask
{
    enum class Kind : std::uint8_t {
        Tile,
        Fused,
        Direct,
        Shadow,
    };
    Kind kind = Kind::Tile;
    std::uint32_t trace = 0;
    std::uint32_t engine = 0;
    std::uint32_t part = 0;
};

/** Everything one sweep will run; see the file comment. */
struct SweepPlan
{
    std::vector<CacheConfig> configs;
    /** route[c]: config c's engine ("shard" if sharded on >= 1 trace). */
    std::vector<SweepRoute> route;
    /** Config indices per FusedReplay slot. */
    std::vector<std::vector<std::size_t>> fusedGroups;
    /** Slots of the direct Caches and of the CrossCheck shadow
     *  Caches (the same on every trace). */
    std::vector<PlanSlot> directIndex;
    std::vector<PlanSlot> shadowIndex;
    /** One per planned trace. */
    std::vector<TracePlan> traces;
    /** Per trace: tiles' shards, fused passes (or their shards),
     *  direct caches, shadows. */
    std::vector<PlanTask> tasks;
};

/**
 * Plan a sweep of @p configs over one trace per entry of
 * @p trace_limits (references each will replay; an empty list plans
 * the routes alone — nothing shards — with no engines) on @p threads
 * workers.
 */
SweepPlan planSweep(const std::vector<CacheConfig> &configs,
                    SweepEngine engine,
                    const std::vector<std::uint64_t> &trace_limits,
                    unsigned threads);

/**
 * Run every task of @p plan on @p pool over @p traces (MemRef input)
 * or, when @p traces is empty, @p packed — one per planned trace —
 * capped at @p max_refs references each, then verify CrossCheck
 * shadows (fatal on a mismatch).
 * @return references consumed per config, summed over traces.
 */
std::uint64_t
runSweepPlan(SweepPlan &plan,
             const std::vector<std::shared_ptr<const VectorTrace>> &traces,
             const std::vector<std::shared_ptr<const PackedTrace>> &packed,
             std::uint64_t max_refs, ThreadPool &pool);

/** Planned trace @p t's summaries, in config order. */
std::vector<SweepResult> planResults(const SweepPlan &plan,
                                     std::size_t t);

/** Configs @p plan shadows on each trace under CrossCheck (a split
 *  config's two shadow halves are one). */
std::size_t shadowedConfigs(const SweepPlan &plan);

/** Imbalance summary over every sharded run of @p plan (sharded
 *  tiles' members and sharded fused groups). */
ShardTelemetry planShardTelemetry(const SweepPlan &plan);

} // namespace occsim

#endif // OCCSIM_MULTI_SWEEP_PLAN_HH
