/**
 * @file
 * Sequential-vs-parallel wall-clock comparison for a full Table 1
 * suite sweep: the paper's 1024-byte design grid over every trace of
 * the PDP-11 suite, run once on the historical single-threaded
 * sequential direct engine and once on the parallel engine, with a
 * bit-identity
 * check between the two result sets.
 *
 * The suite sweep is short enough that per-run setup (trace reset,
 * engine construction) is a visible fraction of the sequential time,
 * which understates thread scaling; a second LARGE-TRACE variant —
 * the same grid over one trace four times the configured length —
 * therefore measures steady-state replay, and both variants report
 * per-thread efficiency (speedup / threads) in the JSON.
 *
 * Prints a human-readable summary plus one machine-readable JSON line
 * (prefix "BENCH_JSON ") for the benchmark trajectory. Exit status is
 * non-zero if the engines disagree, so the CI smoke run doubles as a
 * determinism gate.
 *
 * Trace generation is excluded from both timings (traces are built
 * once, shared, before the clocks start); OCCSIM_TRACE_LEN and
 * OCCSIM_THREADS apply as usual.
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

/** One sequential-vs-parallel timing of @p configs over @p traces. */
struct Comparison
{
    double seqMs = 0.0;
    double parMs = 0.0;
    double speedup = 0.0;
    double efficiency = 0.0;  ///< speedup / threads
    bool bitIdentical = false;
};

Comparison
compareEngines(
    const std::vector<std::shared_ptr<const VectorTrace>> &traces,
    const std::vector<CacheConfig> &configs, unsigned threads)
{
    // Mutable copies for the sequential engine are made outside the
    // timed regions.
    std::vector<VectorTrace> seq_copies;
    seq_copies.reserve(traces.size());
    for (const auto &trace : traces)
        seq_copies.push_back(*trace);

    // Sequential engine: one direct runSingle per config per trace.
    const auto seq_start = std::chrono::steady_clock::now();
    std::vector<std::vector<SweepResult>> seq_results;
    for (VectorTrace &copy : seq_copies) {
        std::vector<SweepResult> results;
        results.reserve(configs.size());
        for (const CacheConfig &config : configs) {
            copy.reset();
            results.push_back(runSingle(config, copy));
        }
        seq_results.push_back(std::move(results));
    }
    Comparison cmp;
    cmp.seqMs = millisSince(seq_start);

    // Parallel engine: the full (trace, config) grid on the pool.
    const auto par_start = std::chrono::steady_clock::now();
    const auto par_results = bench::sweepGrid(traces, configs);
    cmp.parMs = millisSince(par_start);

    cmp.bitIdentical =
        bench::diffResultSets(seq_results, par_results) == 0;
    cmp.speedup = cmp.parMs > 0.0 ? cmp.seqMs / cmp.parMs : 0.0;
    cmp.efficiency = threads > 0 ? cmp.speedup / threads : 0.0;
    return cmp;
}

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = paperGrid(1024, suite.profile.wordSize);
    const unsigned threads = globalThreadPool().size();

    std::printf("parallel sweep engine benchmark: %s suite, "
                "%zu traces x %zu configs (Table 1 grid, net 1024), "
                "%llu refs/trace, %u threads\n",
                suite.profile.name.c_str(), suite.traces.size(),
                configs.size(),
                static_cast<unsigned long long>(defaultTraceLength()),
                threads);

    // Build every trace up front (untimed; shared read-only by both
    // engines).
    const auto traces = buildSuiteTraces(suite);
    const Comparison sweep = compareEngines(traces, configs, threads);

    std::printf("suite sweep:\n"
                "  sequential: %.1f ms\n  parallel:   %.1f ms\n"
                "  speedup:    %.2fx (%.0f%% per-thread efficiency)\n"
                "  bit-identical results: %s\n",
                sweep.seqMs, sweep.parMs, sweep.speedup,
                sweep.efficiency * 100.0,
                sweep.bitIdentical ? "yes" : "NO");

    // Large-trace variant: one trace at 4x the configured length, so
    // steady-state replay dominates setup and the scaling number is
    // honest.
    const std::uint64_t large_refs = 4 * defaultTraceLength();
    const std::vector<std::shared_ptr<const VectorTrace>>
        large_traces = {buildTraceShared(suite.traces[0], large_refs)};
    const Comparison large =
        compareEngines(large_traces, configs, threads);

    std::printf("large trace (%s, %llu refs):\n"
                "  sequential: %.1f ms\n  parallel:   %.1f ms\n"
                "  speedup:    %.2fx (%.0f%% per-thread efficiency)\n"
                "  bit-identical results: %s\n",
                suite.traces[0].name.c_str(),
                static_cast<unsigned long long>(large_refs),
                large.seqMs, large.parMs, large.speedup,
                large.efficiency * 100.0,
                large.bitIdentical ? "yes" : "NO");

    const bool bit_identical =
        sweep.bitIdentical && large.bitIdentical;
    return bench::finishBench(
        "parallel",
        strfmt("{\"bench\":\"parallel_sweep\","
               "\"suite\":\"%s\",\"traces\":%zu,\"configs\":%zu,"
               "\"refs_per_trace\":%llu,\"threads\":%u,"
               "\"seq_ms\":%.3f,\"par_ms\":%.3f,\"speedup\":%.3f,"
               "\"efficiency\":%.3f,"
               "\"large_refs\":%llu,\"large_seq_ms\":%.3f,"
               "\"large_par_ms\":%.3f,\"large_speedup\":%.3f,"
               "\"large_efficiency\":%.3f,"
               "\"bit_identical\":%s}",
               suite.profile.name.c_str(), suite.traces.size(),
               configs.size(),
               static_cast<unsigned long long>(defaultTraceLength()),
               threads, sweep.seqMs, sweep.parMs, sweep.speedup,
               sweep.efficiency,
               static_cast<unsigned long long>(large_refs),
               large.seqMs, large.parMs, large.speedup,
               large.efficiency,
               bit_identical ? "true" : "false"),
        /*gate_enforced=*/true, bit_identical);
}
