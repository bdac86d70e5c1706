/**
 * @file
 * One-trace sweep runner over a shared immutable trace: the probe- and
 * test-facing handle on the sweep planner (multi/sweep_plan.hh).
 *
 * A ParallelSweepRunner is a one-trace SweepPlan plus its executor
 * state. The planner decides every config's route — split pair,
 * fused group, set-sharded run, batched tile, or (under
 * SweepEngine::DirectOnly) a plain Cache — and runSweepPlan
 * runs the plan's tasks across the pool, each worker driving its own
 * engine with a private cursor over the shared trace.
 *
 * Determinism guarantee: results are bit-identical to sequential
 * per-config Cache simulation no matter how the work is scheduled and
 * no matter which engine served a config. OCCSIM_THREADS=1
 * degenerates to inline sequential execution.
 */

#ifndef OCCSIM_MULTI_PARALLEL_SWEEP_HH
#define OCCSIM_MULTI_PARALLEL_SWEEP_HH

#include <memory>
#include <vector>

#include "multi/sweep_plan.hh"

namespace occsim {

/**
 * Runs many cache configurations over one shared immutable trace,
 * partitioned across a thread pool, reporting results in config
 * order.
 *
 * Routes are planned at construction with no trace (nothing shards
 * yet) and fixed at the first run(), which re-plans with that trace's
 * length and the pool width. Batched and direct configs keep a
 * backing Cache; cache(i) panics for the rest (fused, sharded and
 * split ones). Probe-style callers that need a Cache for every
 * unified config construct with allow_sharding = false. run() may be
 * called repeatedly; all engines accumulate as if the traces were
 * concatenated.
 */
class ParallelSweepRunner
{
  public:
    /**
     * @param configs one result slot per entry.
     * @param pool pool to run on; nullptr means globalThreadPool().
     * @param engine routing policy (see SweepEngine).
     * @param allow_sharding false pins every non-split config to the
     *        batched/direct engines even when OCCSIM_SHARD or the
     *        heuristic would shard it, and also disables fused group
     *        routing (probe callers need a backing Cache per config;
     *        neither engine keeps one).
     */
    explicit ParallelSweepRunner(const std::vector<CacheConfig> &configs,
                                 ThreadPool *pool = nullptr,
                                 SweepEngine engine = SweepEngine::Auto,
                                 bool allow_sharding = true);

    /**
     * Feed up to @p max_refs references (0 = all) of @p trace to
     * every cache/engine and finalize residencies. Each worker walks
     * the trace with its own cursor; the trace itself is never
     * modified.
     *
     * Engine-internal entry point: callers outside the engine layer
     * drive sweeps through runSweep(SweepRequest) in
     * multi/sweep_api.hh.
     * @return references consumed per config.
     */
    std::uint64_t run(const std::shared_ptr<const VectorTrace> &trace,
                      std::uint64_t max_refs = 0);

    std::size_t size() const { return plan_.configs.size(); }

    /** The plan: routes, and after the first run() the engines. */
    const SweepPlan &plan() const { return plan_; }

    /** Number of configs served by the batched replay engine (zero
     *  under SweepEngine::DirectOnly). */
    std::size_t batchedCount() const { return count(SweepRoute::Batch); }

    /**
     * Number of configs served by the set-sharded engine. Routing to
     * it happens at the first run() (it depends on the trace length
     * and pool width — see shouldShard), so this is zero before then
     * and sticky afterwards.
     */
    std::size_t shardedCount() const { return count(SweepRoute::Shard); }

    /** @return true when config @p i went to the set-sharded engine
     *  (decided at first run(); no single backing Cache exists). */
    bool sharded(std::size_t i) const
    {
        return route(i) == SweepRoute::Shard;
    }

    /** Number of configs served by fused group engines (the grouping
     *  is trace-independent, so known at construction; zero under
     *  DirectOnly or allow_sharding == false). */
    std::size_t fusedCount() const { return count(SweepRoute::Fused); }

    /** @return true when config @p i rides a fused group pass (no
     *  single backing Cache exists). */
    bool fused(std::size_t i) const
    {
        return route(i) == SweepRoute::Fused;
    }

    /** Number of configs served by dedicated split I/D pairs
     *  (every CachePartition::SplitID config, regardless of engine
     *  mode — no batched kernel exists for a routed pair). */
    std::size_t splitCount() const { return count(SweepRoute::Split); }

    /** @return true when config @p i is simulated as a split I/D
     *  pair (no single backing Cache exists). */
    bool split(std::size_t i) const
    {
        return route(i) == SweepRoute::Split;
    }

    /** Number of fused groups (each >= 2 configs). */
    std::size_t fusedGroupCount() const
    {
        return plan_.fusedGroups.size();
    }

    /** Fused group @p g's engine (after the first run()). */
    const FusedReplay &fusedGroup(std::size_t g) const;

    /** Imbalance summary over this runner's sharded runs (all zeros
     *  when nothing sharded). */
    ShardTelemetry shardTelemetry() const
    {
        return planShardTelemetry(plan_);
    }

    /** Number of configs shadow-verified per run() (non-zero only
     *  under SweepEngine::CrossCheck). */
    std::size_t crossCheckCount() const
    {
        return plan_.shadowIndex.size();
    }

    /** Backing Cache of config @p i (after the first run()); panics
     *  unless the config is batched or direct. */
    const Cache &cache(std::size_t i) const;
    Cache &cache(std::size_t i);

    /** Summaries in config order (after the first run()). */
    std::vector<SweepResult> results() const
    {
        return planResults(plan_, 0);
    }

  private:
    SweepRoute route(std::size_t i) const;
    std::size_t count(SweepRoute route) const;

    ThreadPool *pool_;
    SweepEngine engine_;
    bool allowSharding_;
    /** Routes only until the first run(); then one trace's engines. */
    SweepPlan plan_;
};

} // namespace occsim

#endif // OCCSIM_MULTI_PARALLEL_SWEEP_HH
