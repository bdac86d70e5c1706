/**
 * @file
 * Shared machinery for the experiment drivers that regenerate the
 * paper's tables and figures: the standard Table 1 design grid, suite
 * execution with unweighted averaging across traces, and consistent
 * row formatting.
 */

#ifndef OCCSIM_HARNESS_EXPERIMENT_HH
#define OCCSIM_HARNESS_EXPERIMENT_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "multi/sweep_plan.hh"
#include "multi/sweep_runner.hh"
#include "workload/suites.hh"

namespace occsim {

/**
 * The paper's Table 1 design grid for one net size: 4-way LRU demand
 * caches with block sizes 2..64 and sub-block sizes 2..32, subject to
 * wordSize <= subBlock <= block <= netSize.
 */
std::vector<CacheConfig> paperGrid(std::uint32_t net_size,
                                   std::uint32_t word_size);

/**
 * Like paperGrid restricted to the sizes that appear in Table 7
 * (sub-block <= 32, and for blocks of 64 only sub-blocks <= 16).
 */
std::vector<CacheConfig> table7Grid(std::uint32_t net_size,
                                    std::uint32_t word_size);

/**
 * Result of running one suite over one config list: per-trace results
 * plus the unweighted average the paper reports.
 */
struct SuiteRun
{
    std::vector<std::string> traceNames;
    std::vector<std::vector<SweepResult>> perTrace;
    std::vector<SweepResult> average;
};

/**
 * Build every trace of @p suite (at @p trace_len references, 0 =
 * defaultTraceLength()) in parallel through the buildTraceShared
 * cache. Each workload executes the VM exactly once; the returned
 * traces are immutable and shared.
 */
std::vector<std::shared_ptr<const VectorTrace>>
buildSuiteTraces(const Suite &suite, std::uint64_t trace_len = 0);

/**
 * Build each trace of @p suite (at @p trace_len references, 0 =
 * defaultTraceLength()) and run every config of @p configs over it.
 *
 * Runs on the parallel sweep engine: traces are built concurrently
 * (one VM execution per workload, shared read-only) and the (trace,
 * config) simulation grid is partitioned across the global thread
 * pool. Results are bit-identical to the sequential engine;
 * OCCSIM_THREADS=1 restores fully sequential execution.
 */
SuiteRun runSuite(const Suite &suite,
                  const std::vector<CacheConfig> &configs,
                  std::uint64_t trace_len = 0);

/** Format a ratio in the paper's 3/4-decimal style. */
std::string fmtRatio(double value);

/** Print a standard experiment banner (name + trace length). */
void printBanner(std::ostream &os, const std::string &title);

} // namespace occsim

#endif // OCCSIM_HARNESS_EXPERIMENT_HH
