/**
 * @file
 * The differential driver: run every engine occsim owns over one
 * (config, trace) pair and diff the results.
 *
 * Engines compared per case:
 *
 *  1. ReferenceCache (the naive oracle) vs the direct Cache engine:
 *     every counter, histogram bucket, and derived metric, plus the
 *     summarized SweepResult's residency pair.
 *  2. A one-trace sweep (planSweep + runSweepPlan, the pair behind
 *     runSweep) with SweepEngine::DirectOnly vs the direct Cache's
 *     SweepResult (the routing layer must be a no-op).
 *  3. The same with SweepEngine::Auto (this exercises the batched
 *     replay engine, or the set-sharded one when the shard heuristic
 *     picks it).
 *  4. A standalone BatchReplay run with a deliberately awkward
 *     tiling (1-config tiles, 7-record chunks): full statistics vs
 *     the oracle and the summarized SweepResult vs the direct
 *     engine's, so the specialized kernels and the chunk-boundary
 *     logic are diffed on every case.
 *  5. For shard-eligible configs, standalone ShardReplay runs at
 *     awkward shard counts vs the direct engine's SweepResult.
 *  6. For fused-eligible configs, FusedReplay group passes (unsharded
 *     and sharded) with awkward sibling configs; every member vs its
 *     own direct run.
 *
 * Split I/D configs take their own stack: a pair of oracle halves vs
 * the SplitCache, and both routing modes vs its summary.
 *
 * All comparisons are exact — the engines promise bit-identical
 * numbers, so any difference, however small, is a bug in one of
 * them (or in the oracle, which is the point of keeping the oracle
 * naive enough to audit by eye).
 *
 * A DiffOptions::perturbReference hook lets the test suite inject a
 * deliberate fault into the oracle's totals post-hoc, proving the
 * harness detects and shrinks real divergence (and guarding against
 * the classic fuzzer failure mode of comparing nothing).
 */

#ifndef OCCSIM_CHECK_DIFFERENTIAL_HH
#define OCCSIM_CHECK_DIFFERENTIAL_HH

#include <functional>
#include <string>
#include <vector>

#include "check/reference_cache.hh"

namespace occsim {

/** Knobs for one differential comparison. */
struct DiffOptions
{
    /** Fault-injection hook applied to the oracle's totals before
     *  diffing (tests only; empty in production fuzzing). */
    std::function<void(ReferenceStats &)> perturbReference;
};

/** Outcome of one differential case. */
struct CaseReport
{
    /** One line per mismatching field, across all engine pairs. */
    std::vector<std::string> diffs;

    bool mismatch() const { return !diffs.empty(); }
};

/**
 * Run every engine over (@p config, @p refs) and diff the results.
 * Self-contained and deterministic; safe to call repeatedly (the
 * shrinker calls it thousands of times).
 */
CaseReport runDifferentialCase(const CacheConfig &config,
                               const std::vector<MemRef> &refs,
                               const DiffOptions &options = {});

} // namespace occsim

#endif // OCCSIM_CHECK_DIFFERENTIAL_HH
