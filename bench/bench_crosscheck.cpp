/**
 * @file
 * Cost of the CrossCheck runtime verification mode: the Table 1
 * size x associativity sweep over the PDP-11 suite run with
 * SweepEngine::Auto (fast path only) and again with
 * SweepEngine::CrossCheck (fast path plus shadow direct simulation
 * of a sampled subset of the routed configs, verified bitwise after
 * every run). The run doubles as a correctness gate: a cross-check
 * divergence aborts the process, and this driver additionally
 * requires both modes to produce bit-identical result sets.
 *
 * Prints a human-readable summary plus one machine-readable JSON
 * line (prefix "BENCH_JSON "). Trace generation is excluded from
 * both timings; OCCSIM_TRACE_LEN and OCCSIM_THREADS apply as usual.
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

std::vector<CacheConfig>
sizeAssocGrid(std::uint32_t word_size)
{
    constexpr std::uint32_t kBlock = 8;
    std::vector<CacheConfig> configs;
    for (std::uint32_t net = 64; net <= 8192; net *= 2) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            CacheConfig config =
                makeConfig(net, kBlock, kBlock, word_size);
            config.assoc = assoc;
            configs.push_back(config);
        }
    }
    return configs;
}

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = sizeAssocGrid(suite.profile.wordSize);
    const unsigned threads = globalThreadPool().size();

    std::printf("cross-check mode benchmark: %s suite, %zu traces x "
                "%zu configs, %llu refs/trace, %u threads\n",
                suite.profile.name.c_str(), suite.traces.size(),
                configs.size(),
                static_cast<unsigned long long>(defaultTraceLength()),
                threads);

    const auto traces = buildSuiteTraces(suite);

    const auto auto_start = std::chrono::steady_clock::now();
    const auto auto_results = bench::sweepGrid(traces, configs);
    const double auto_ms = millisSince(auto_start);

    // CrossCheck aborts the process on any divergence; surviving the
    // call is already a pass. Shadow count is reported per trace.
    const std::size_t shadows =
        planSweep(configs, SweepEngine::CrossCheck, {}, threads)
            .shadowIndex.size();

    const auto checked_start = std::chrono::steady_clock::now();
    const auto checked_results = bench::sweepGrid(
        traces, configs, nullptr, SweepEngine::CrossCheck);
    const double checked_ms = millisSince(checked_start);

    const bool bit_identical =
        bench::diffResultSets(auto_results, checked_results) == 0;

    const double overhead =
        auto_ms > 0.0 ? checked_ms / auto_ms : 0.0;
    std::printf("auto:        %.1f ms\n"
                "cross-check: %.1f ms (%zu shadow configs/trace)\n"
                "overhead:    %.2fx\n"
                "bit-identical results: %s\n",
                auto_ms, checked_ms, shadows, overhead,
                bit_identical ? "yes" : "NO");

    return bench::finishBench(
        "crosscheck",
        strfmt("{\"bench\":\"crosscheck\","
               "\"suite\":\"%s\",\"traces\":%zu,\"configs\":%zu,"
               "\"refs_per_trace\":%llu,\"threads\":%u,"
               "\"shadows_per_trace\":%zu,"
               "\"auto_ms\":%.3f,\"checked_ms\":%.3f,"
               "\"overhead\":%.3f,\"bit_identical\":%s}",
               suite.profile.name.c_str(), suite.traces.size(),
               configs.size(),
               static_cast<unsigned long long>(defaultTraceLength()),
               threads, shadows, auto_ms, checked_ms, overhead,
               bit_identical ? "true" : "false"),
        /*gate_enforced=*/true, bit_identical);
}
