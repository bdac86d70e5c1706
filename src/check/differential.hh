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
 *  3. The same with SweepEngine::Auto (this exercises a one-shard
 *     tile, the batch route, or a sharded tile when the shard
 *     heuristic picks it).
 *  4. Standalone TileReplay runs at deliberately awkward 7-record
 *     chunks: a one-shard tile of the config alone and, for
 *     shard-eligible configs, sharded tiles at awkward shard counts.
 *     A sharded tile adds a companion of another block size whose
 *     set field holds the same shard window, when one exists. The
 *     config's merged statistics are diffed in full against the
 *     oracle, and every member's summary against its own direct run,
 *     so the specialized kernels, the shard filter and the
 *     chunk-boundary logic are diffed on every case.
 *  5. For fused-eligible configs, FusedReplay group passes (unsharded
 *     and sharded) with awkward sibling configs; every member vs its
 *     own direct run.
 *
 * Engines 4 and 5 run twice, once over the packed records and once
 * over the MemRef span in place (diff labels prefixed "memref-"),
 * since a sweep over VectorTraces feeds them MemRef records.
 *
 * Split I/D configs take their own stack: per reference kind, an
 * oracle half vs a direct Cache half and vs kind tiles (one-shard and
 * forced shard counts, 7-record chunks, both record layouts); then
 * both routing modes vs the halves' summed summary.
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
