/**
 * @file
 * Direct-vs-batched wall-clock comparison on the paper's sector and
 * load-forward grid — configurations a Mattson stack pass cannot
 * price (sub-block < block, load-forward fetch), which
 * before the batched engine all fell back to per-reference
 * Cache::access simulation.
 *
 * Both engines run single-threaded on a private one-worker pool so
 * the headline number isolates the engine change (packed trace +
 * specialized kernels + config tiling) from PR 1's thread-level
 * parallelism. A bit-identity check between the two result sets makes
 * the CI smoke run double as a correctness gate: exit status is
 * non-zero if any result disagrees.
 *
 * Prints a human-readable summary plus one machine-readable JSON
 * line (prefix "BENCH_JSON ", persisted to BENCH_batch.json). Trace
 * generation is excluded from both timings; OCCSIM_TRACE_LEN applies
 * as usual.
 */

#include <chrono>
#include <cstdio>

#include "bench_reporter.hh"
#include "harness/experiment.hh"
#include "multi/sweep_plan.hh"
#include "util/str.hh"
#include "workload/suites.hh"

using namespace occsim;
using bench::millisSince;

namespace {

/**
 * The sector/load-forward design points behind Figures 4-9: every
 * (block, sub-block) pair with sub < block at the paper's standard
 * 1024-byte net size, crossed with demand and load-forward fetch.
 * Auto routes the grid to the fused and batched packed-replay
 * engines.
 */
std::vector<CacheConfig>
sectorLoadForwardGrid(std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t block : {8u, 16u, 32u, 64u}) {
        for (std::uint32_t sub = std::max(2u, word_size); sub < block;
             sub *= 2) {
            for (const FetchPolicy fetch :
                 {FetchPolicy::Demand, FetchPolicy::LoadForward}) {
                CacheConfig config =
                    makeConfig(1024, block, sub, word_size);
                config.fetch = fetch;
                configs.push_back(config);
            }
        }
    }
    return configs;
}

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = sectorLoadForwardGrid(suite.profile.wordSize);

    std::printf("batched replay engine benchmark: %s suite, "
                "%zu traces x %zu configs (sector/load-forward grid, "
                "net 1024), %llu refs/trace, single-threaded\n",
                suite.profile.name.c_str(), suite.traces.size(),
                configs.size(),
                static_cast<unsigned long long>(defaultTraceLength()));

    // Build every trace up front (untimed; shared read-only by both
    // engines). One worker: the comparison isolates the engine, not
    // the pool.
    const auto traces = buildSuiteTraces(suite);
    ThreadPool pool(1);

    // Reference: per-config direct Cache::access simulation.
    const auto direct_start = std::chrono::steady_clock::now();
    const auto direct_results = bench::sweepGrid(
        traces, configs, &pool, SweepEngine::DirectOnly);
    const double direct_ms = millisSince(direct_start);

    // Batched: packed trace decoded once per trace, specialized
    // kernels, config-tiled streaming (trace packing is inside the
    // timed region — it is part of the engine's real cost).
    const auto batch_start = std::chrono::steady_clock::now();
    const auto batch_results =
        bench::sweepGrid(traces, configs, &pool, SweepEngine::Auto);
    const double batch_ms = millisSince(batch_start);

    const bool bit_identical =
        bench::diffResultSets(direct_results, batch_results) == 0;

    const double speedup =
        batch_ms > 0.0 ? direct_ms / batch_ms : 0.0;
    std::printf("direct (per-config): %.1f ms\n"
                "batched:             %.1f ms\n"
                "speedup:             %.2fx\n"
                "bit-identical results: %s\n",
                direct_ms, batch_ms, speedup,
                bit_identical ? "yes" : "NO");

    return bench::finishBench(
        "batch",
        strfmt("{\"bench\":\"batch\",\"suite\":\"%s\","
               "\"traces\":%zu,\"configs\":%zu,"
               "\"refs_per_trace\":%llu,\"threads\":1,"
               "\"direct_ms\":%.3f,\"batch_ms\":%.3f,"
               "\"speedup\":%.3f,\"bit_identical\":%s}",
               suite.profile.name.c_str(), suite.traces.size(),
               configs.size(),
               static_cast<unsigned long long>(defaultTraceLength()),
               direct_ms, batch_ms, speedup,
               bit_identical ? "true" : "false"),
        /*gate_enforced=*/true, bit_identical);
}
