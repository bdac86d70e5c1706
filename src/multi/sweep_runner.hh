/**
 * @file
 * Sweep results and the shared summarization arithmetic.
 *
 * The paper's tables evaluate dozens of cache design points per
 * trace. All engines — direct, batched, sharded, fused, sampled, and
 * the coherent multicore engine — funnel their finished
 * statistics through summarizeStats() here, so every SweepResult's
 * derived doubles come from exactly one piece of arithmetic
 * (bit-identical across engines by construction).
 */

#ifndef OCCSIM_MULTI_SWEEP_RUNNER_HH
#define OCCSIM_MULTI_SWEEP_RUNNER_HH

#include <vector>

#include "cache/cache.hh"
#include "cache/split_cache.hh"
#include "multi/sample_replay.hh"
#include "trace/trace.hh"

namespace occsim {

class CoherentSystem;

/**
 * Coherency-traffic summary of one multicore scenario run: the
 * snooping-bus counters (CoherencyStats) plus the derived per-kiloref
 * and traffic-ratio figures that extend the paper's methodology to
 * coherency traffic. Inactive (all zero) for single-cache results.
 */
struct CoherencySummary
{
    bool active = false;
    std::uint32_t cores = 0;
    std::uint64_t busReads = 0;
    std::uint64_t busReadForOwnership = 0;
    std::uint64_t busUpgrades = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t cacheToCacheTransfers = 0;
    std::uint64_t c2cWords = 0;
    std::uint64_t snoopWritebackWords = 0;
    /** Invalidations per 1000 references (reads + writes). */
    double invalidationsPerKiloRef = 0.0;
    /** Coherency-only bus words (cache-to-cache + snoop flushes)
     *  over counted references — the coherency surcharge on the
     *  paper's traffic ratio. */
    double coherenceTrafficRatio = 0.0;
    /** Per-core miss ratios, core order. */
    std::vector<double> coreMissRatios;
};

/**
 * Result of one configuration within a sweep. The headline doubles
 * are exact counts from the exact engines; under SweepEngine::Sampled
 * they are per-unit means and `sampled` carries the uncertainty
 * (sampled.active distinguishes the two — exact results leave it
 * false). Multicore scenario sweeps additionally fill `coherency`
 * (aggregated across cores; the headline doubles then describe the
 * core-merged statistics).
 */
struct SweepResult
{
    CacheConfig config;
    std::uint64_t grossBytes = 0;
    double missRatio = 0.0;
    double warmMissRatio = 0.0;
    double trafficRatio = 0.0;
    double warmTrafficRatio = 0.0;
    double nibbleTrafficRatio = 0.0;
    double warmNibbleTrafficRatio = 0.0;
    /** Mean sub-blocks referenced per block residency, and the
     *  fraction of sub-block frames a residency never referenced
     *  (Table 6's sector-cache claim). Exact engines only; zero under
     *  SweepEngine::Sampled. */
    double meanSubBlocksTouched = 0.0;
    double neverReferencedFraction = 0.0;
    /** Sampling-engine estimates (stderr/CI per metric); inactive
     *  and all-zero for exact-engine results. */
    SampleEstimates sampled;
    /** Coherent-engine traffic summary; inactive for single-cache
     *  results. */
    CoherencySummary coherency;
};

/**
 * Bitwise equality of the exact-engine result fields: config, gross
 * size, the six ratios and the residency pair (doubles compared with
 * ==, deliberately: the engines promise bit-identical arithmetic).
 * Sampling estimates and coherency summaries are not compared.
 */
bool sameSweepResult(const SweepResult &a, const SweepResult &b);

/** Summarize a finished cache into a SweepResult (nibble-mode
 *  pricing at ratio 3). */
SweepResult summarizeCache(const Cache &cache);

/**
 * Summarize finished run statistics into a SweepResult. This is the
 * code path behind summarizeCache, exposed so the fused, sharded and
 * sampled engines produce their summaries through exactly the same
 * derived-metric arithmetic (bit-identical doubles).
 */
SweepResult summarizeStats(const CacheConfig &config,
                           std::uint64_t gross_bytes,
                           const CacheStats &stats);

/**
 * Summarize a finished split I/D pair under its original (SplitID)
 * config: the two halves' statistics merge exactly (integer sums)
 * and the combined totals flow through summarizeStats.
 */
SweepResult summarizeSplit(const CacheConfig &config,
                           const SplitCache &split);

/**
 * Summarize a finished coherent scenario run for grid entry
 * @p config: per-core statistics merge exactly across cores, the
 * merged totals flow through summarizeStats, and the bus counters
 * land in SweepResult::coherency.
 */
SweepResult summarizeCoherent(const CacheConfig &config,
                              const CoherentSystem &system);

/** Simulate one configuration over @p source (routing SplitID
 *  configs to a SplitCache pair); returns its summary. */
SweepResult runSingle(const CacheConfig &config, TraceSource &source,
                      std::uint64_t max_refs = 0);

/**
 * Average sweep results across traces, unweighted, as the paper does
 * ("multiple-trace miss and traffic ratios are the unweighted average
 * of the ... individual runs"). All runs must cover the same configs
 * in the same order. Coherency counters average as rounded integer
 * means; the derived coherency doubles average exactly like the
 * headline metrics.
 */
std::vector<SweepResult>
averageResults(const std::vector<std::vector<SweepResult>> &runs);

} // namespace occsim

#endif // OCCSIM_MULTI_SWEEP_RUNNER_HH
