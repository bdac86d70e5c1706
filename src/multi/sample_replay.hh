/**
 * @file
 * SMARTS-style systematic statistical sampling over a packed trace.
 *
 * Every other engine in this library is exact: it prices every
 * reference, so cost grows linearly with trace length and the paper
 * grid is stuck at ~1M-reference runs. The sampling engine prices
 * only a systematic subset of fixed-size MEASUREMENT UNITS and
 * functionally warms the cache between them — tag, valid-bit, and
 * replacement state evolve bit-identically to a full run (through the
 * Record=false twin of the specialized replay kernels, see
 * Cache::warmPacked), but no statistics are recorded, which removes
 * the per-reference accounting cost from the (k-1)/k of the trace
 * between units. Each unit's metrics become one observation; the
 * engine reports per-metric means with standard errors and 95%
 * confidence intervals (stats/estimate.hh), because a sampled number
 * without its uncertainty is a lie.
 *
 * On top of per-config sampling sits checkpoint amortization: for
 * LRU + demand + sub-block==block + write-allocate configs, the cache
 * content of every (set count, associativity) point is a prefix of
 * one per-set LRU stack (the inclusion property of Mattson stack
 * simulation). One warming pass per (trace, block size)
 * maintains a maxAssoc-deep MRU array per set count and snapshots it
 * at every measurement-unit boundary ("live points"); each config
 * then replays only the measured units, seeding its frames from the
 * snapshot (Cache::seedWarmState), so the whole size x assoc grid
 * amortizes a single warming sweep. The checkpoint path is
 * bit-identical to warming each config individually for every
 * SweepResult metric (the differential tests in
 * tests/test_sample_replay.cpp enforce this), because under LRU the
 * top-A rows reproduce exact contents, recency, and ever-filled
 * cold-start classification.
 *
 * This engine is NEVER auto-routed: exact engines remain the default,
 * and sampled results must be requested explicitly
 * (SweepEngine::Sampled) so nobody mistakes an estimate for a count.
 */

#ifndef OCCSIM_MULTI_SAMPLE_REPLAY_HH
#define OCCSIM_MULTI_SAMPLE_REPLAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "stats/estimate.hh"
#include "trace/packed_trace.hh"

namespace occsim {

struct SweepResult;

/** Sampling knobs of one sampled sweep. */
struct SampleSpec
{
    /** References per measurement unit. */
    std::uint64_t unitRefs = 4096;

    /** Sampling interval k: one unit is measured out of every
     *  k * unitRefs references (systematic sampling). */
    std::uint64_t intervalUnits = 16;

    /** References skipped (functionally warmed, never measured) at
     *  the start of the trace. */
    std::uint64_t warmupRefs = 0;

    /** Seed for the stratified unit placement. */
    std::uint64_t seed = 1;

    /**
     * Place each measured unit uniformly at random within its
     * interval (stratified systematic sampling) instead of always at
     * the interval start. Deterministic given seed; on by default
     * because periodic program behavior aliasing against a fixed
     * sampling period is the classic systematic-sampling failure
     * mode.
     */
    bool stratified = true;

    /**
     * Disable checkpoint amortization: every config warms its own
     * cache through the full trace (still at Record=false kernel
     * speed). For the differential tests proving the checkpoint path
     * bit-identical, and for honesty experiments; slower, never
     * needed in production.
     */
    bool forceDirect = false;
};

/** One measurement unit: references [begin, end) of the trace. */
struct SampleUnit
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/**
 * Plan the measured units over @p limit references: one unit of
 * spec.unitRefs per interval of spec.unitRefs * spec.intervalUnits
 * references, starting after spec.warmupRefs, placed at the interval
 * start (or uniformly within the interval when spec.stratified).
 * Partial intervals at the trace tail are dropped — a short unit
 * would be a differently-distributed observation. If nothing fits
 * (short trace or oversized warmup) and @p limit > 0, a single
 * fallback unit covering the trace tail is planned so smoke-length
 * runs still measure something.
 */
std::vector<SampleUnit> planSampleUnits(std::uint64_t limit,
                                        const SampleSpec &spec);

/** @return true when @p config can ride the shared warming pass +
 *  live-point checkpoints (LRU + demand + sub-block == block +
 *  write-allocate: the LRU-stack-inclusion family). */
bool checkpointEligible(const CacheConfig &config);

/** Per-config sampling summary carried on SweepResult. */
struct SampleEstimates
{
    /** True when this result came from the sampling engine (exact
     *  engines leave it false and every estimate zero). */
    bool active = false;

    std::uint64_t units = 0;          ///< measured units
    std::uint64_t unitRefs = 0;       ///< refs per unit (spec)
    std::uint64_t intervalUnits = 0;  ///< sampling interval k (spec)
    std::uint64_t warmupRefs = 0;     ///< warmup prefix (spec)
    std::uint64_t measuredRefs = 0;   ///< total refs inside units

    MetricEstimate missRatio;
    MetricEstimate warmMissRatio;
    MetricEstimate trafficRatio;
    MetricEstimate warmTrafficRatio;
    MetricEstimate nibbleTrafficRatio;
    MetricEstimate warmNibbleTrafficRatio;
};

/**
 * The sampling engine for one (trace, config grid) pair.
 *
 * Lifecycle: construct with the grid and spec, prepare() with the
 * trace (plans units, allocates warm state), run every warm task,
 * then every measure task (warm tasks must ALL finish first — the
 * barrier between the two phases is the caller's, so a pool can run
 * each phase as one parallelFor), then collect results(). Tasks are
 * independent within a phase: warm task f owns block-size family f's
 * rows and checkpoints, measure task c owns config c's cache and
 * estimators.
 */
class SampleReplay
{
  public:
    SampleReplay(const std::vector<CacheConfig> &configs,
                 const SampleSpec &spec);

    /** Plan units over @p trace (capped at @p max_refs, 0 = all) and
     *  allocate the warming families. Must precede the tasks. */
    void prepare(const PackedTrace &trace, std::uint64_t max_refs);

    /** One warming pass per block-size family with >= 1
     *  checkpoint-eligible config (zero when spec.forceDirect). */
    std::size_t numWarmTasks() const { return families_.size(); }
    void runWarmTask(std::size_t family, const PackedTrace &trace);

    /** One measure task per config. */
    std::size_t numMeasureTasks() const { return configs_.size(); }
    void runMeasureTask(std::size_t config_index,
                        const PackedTrace &trace);

    /** Summaries in config order: headline doubles hold the unit
     *  means, SweepResult::sampled the full estimates. */
    std::vector<SweepResult> results() const;

    /** The planned units (after prepare()). */
    const std::vector<SampleUnit> &units() const { return units_; }

    /** Total references inside measured units (after prepare()). */
    std::uint64_t measuredRefs() const { return measuredRefs_; }

  private:
    /** Per-set MRU block-address array for one set count, maxAssoc
     *  deep, plus its per-unit live-point snapshots. */
    struct WarmGroup
    {
        std::uint32_t numSets = 0;
        std::uint32_t assoc = 0;  ///< max assoc among member configs
        /** numSets * assoc block addresses, MRU first per row;
         *  ~Addr(0) = empty slot. */
        std::vector<Addr> rows;
        /** units.size() snapshots of rows, concatenated. */
        std::vector<Addr> checkpoints;
    };

    /** All warm groups of one block size (one warming pass). */
    struct WarmFamily
    {
        std::uint32_t blockBits = 0;
        std::vector<WarmGroup> groups;
    };

    /** Checkpoint route of one config: which family/group serves it
     *  (family < 0 = direct per-config warming). */
    struct Route
    {
        std::int32_t family = -1;
        std::int32_t group = -1;
    };

    template <std::uint32_t A>
    static void updateRowsSpec(Addr *rows, std::uint32_t set_mask,
                               std::uint32_t block_bits,
                               const PackedRecord *refs,
                               std::size_t n);
    static void updateRows(WarmGroup &group, std::uint32_t block_bits,
                           const PackedRecord *refs, std::size_t n);

    SampleSpec spec_;
    std::vector<CacheConfig> configs_;
    std::vector<Route> routes_;
    std::vector<WarmFamily> families_;
    std::vector<SampleUnit> units_;
    std::uint64_t limit_ = 0;
    std::uint64_t measuredRefs_ = 0;
    // Per-config outputs, each written by that config's measure task
    // only (no sharing within a phase).
    std::vector<SampleEstimates> estimates_;
    /** 6 unit means per config, in summarizeStats field order. */
    std::vector<std::array<double, 6>> means_;
    std::vector<std::uint64_t> grossBytes_;
};

} // namespace occsim

#endif // OCCSIM_MULTI_SAMPLE_REPLAY_HH
