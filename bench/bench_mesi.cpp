/**
 * @file
 * Coherency-traffic sweep of the MESI engine: the three parallel
 * sharing workloads priced on 1-, 2- and 4-core scenarios of the
 * same 1 KB private cache, through the one public runSweep() entry
 * point.
 *
 * This bench is not a speedup race — a multicore scenario simulates
 * a different machine — so the headline numbers are the coherency
 * counters themselves (invalidations, upgrades, cache-to-cache
 * words, snoop flushes) as the core count scales, plus wall-clock
 * nanoseconds per reference per scenario (the 1-core scenario runs
 * the single-cache engines; 2 and 4 cores the coherent kernel). Its
 * gates are correctness, enforced at every length:
 *
 *   - the 1-core scenario must be bit-identical to the plain direct
 *     Cache over every trace (the anchor invariant of the scenario
 *     redesign), and
 *   - a bounded prefix of every (workload, cores) cell must agree
 *     counter-for-counter with the flat-snooping oracle
 *     (check/coherence_check.hh), and
 *   - the multicore cells must actually generate coherency traffic
 *     (a silent bus would mean the scenario routing quietly fell
 *     back to independent caches).
 *
 * Prints a human-readable table plus one machine-readable
 * "BENCH_JSON " line persisted to BENCH_mesi.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_reporter.hh"
#include "cache/cache.hh"
#include "check/coherence_check.hh"
#include "multi/sweep_api.hh"
#include "util/str.hh"
#include "workload/parallel.hh"
#include "workload/suites.hh"

using namespace occsim;
using bench::millisSince;

namespace {

constexpr std::uint32_t kTraceCores = 4;  ///< stamped core ids 0..3
constexpr std::uint64_t kOracleRefs = 30000;  ///< prefix per cell

/** Per-scenario aggregate over the workload suite. */
struct ScenarioRow
{
    double ms = 0.0;
    std::uint64_t refs = 0;
    double missSum = 0.0;
    CoherencySummary traffic;  ///< counters summed across traces

    /** Wall-clock nanoseconds per simulated reference. */
    double nsPerRef() const
    {
        return refs > 0 ? ms * 1e6 / static_cast<double>(refs) : 0.0;
    }
};

} // namespace

int
main()
{
    // One trace per sharing pattern, stamped with 4 core ids; the
    // engine reduces ids modulo the scenario's core count, so the
    // same bytes replay on every scenario (1/2/4 cores).
    ParallelWorkloadParams params;
    params.cores = kTraceCores;
    params.refsPerCore =
        std::max<std::uint64_t>(defaultTraceLength() / kTraceCores,
                                1000);
    params.wordSize = 2;
    params.seed = 0xbe5c0ull;

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    std::vector<ParallelWorkloadKind> kinds = {
        ParallelWorkloadKind::SharedQueue,
        ParallelWorkloadKind::PartitionedSum,
        ParallelWorkloadKind::ProducerConsumerRing,
    };
    for (const ParallelWorkloadKind kind : kinds) {
        traces.push_back(std::make_shared<const VectorTrace>(
            makeParallelTrace(kind, params)));
    }

    CacheConfig config = makeConfig(1024, 16, 8, 2);
    config.write = WritePolicy::CopyBack;  // the MESI subset

    bool identical = true;

    // Anchor baseline: the plain direct Cache per trace.
    std::vector<SweepResult> direct_results;
    for (const auto &trace : traces) {
        Cache cache(config);
        for (const MemRef &ref : trace->refs())
            cache.access(ref);
        cache.finalizeResidencies();
        direct_results.push_back(summarizeCache(cache));
    }

    const std::uint32_t core_counts[] = {1, 2, 4};
    std::vector<ScenarioRow> rows;
    for (const std::uint32_t cores : core_counts) {
        SweepRequest request;
        request.traces = traces;
        request.configs = {config};
        request.scenario.cores = cores;
        request.wantAverage = false;
        request.label = strfmt("bench-mesi-%uc", cores);

        const auto start = std::chrono::steady_clock::now();
        const SweepReport report = runSweep(request);
        ScenarioRow row;
        row.ms = millisSince(start);
        row.refs = report.refs;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const SweepResult &result = report.perTrace[t][0];
            row.missSum += result.missRatio;
            if (cores == 1) {
                // The 1-core scenario IS the single-cache model.
                if (!sameSweepResult(result, direct_results[t])) {
                    std::printf("MISMATCH: 1-core scenario vs direct "
                                "cache on %s\n",
                                traces[t]->name().c_str());
                    identical = false;
                }
            } else {
                row.traffic.busReads += result.coherency.busReads;
                row.traffic.busReadForOwnership +=
                    result.coherency.busReadForOwnership;
                row.traffic.busUpgrades +=
                    result.coherency.busUpgrades;
                row.traffic.invalidations +=
                    result.coherency.invalidations;
                row.traffic.cacheToCacheTransfers +=
                    result.coherency.cacheToCacheTransfers;
                row.traffic.c2cWords += result.coherency.c2cWords;
                row.traffic.snoopWritebackWords +=
                    result.coherency.snoopWritebackWords;
            }
        }
        rows.push_back(row);
    }

    // Multicore cells must communicate: dead counters would mean the
    // scenario silently degenerated to independent caches.
    for (std::size_t r = 1; r < rows.size(); ++r) {
        if (rows[r].traffic.invalidations == 0 ||
            rows[r].traffic.busUpgrades +
                    rows[r].traffic.busReadForOwnership ==
                0) {
            std::printf("MISMATCH: %u-core sweep produced no "
                        "coherency traffic\n",
                        core_counts[r]);
            identical = false;
        }
    }

    // Oracle gate: a bounded prefix of every (workload, cores) cell
    // through the coherent engine AND the flat-snooping oracle.
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const std::vector<MemRef> &refs = traces[t]->refs();
        const std::vector<MemRef> prefix(
            refs.begin(),
            refs.begin() +
                std::min<std::size_t>(refs.size(), kOracleRefs));
        for (const std::uint32_t cores : {2u, 4u}) {
            ScenarioConfig scenario;
            scenario.cores = cores;
            const CoherenceCaseReport oracle = runCoherencyCase(
                scenario, config, prefix,
                parallelWorkloadName(kinds[t]));
            for (const std::string &line : oracle.diffs) {
                std::printf("MISMATCH %s x%u: %s\n",
                            parallelWorkloadName(kinds[t]), cores,
                            line.c_str());
                identical = false;
            }
        }
    }

    std::printf("%-8s %10s %10s %10s %10s %10s %12s %10s\n", "cores",
                "ms", "ns/ref", "miss", "inval", "upgrades",
                "c2c words", "flushes");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const ScenarioRow &row = rows[r];
        std::printf("%-8u %10.1f %10.2f %10.4f %10llu %10llu %12llu "
                    "%10llu\n",
                    core_counts[r], row.ms, row.nsPerRef(),
                    row.missSum / traces.size(),
                    static_cast<unsigned long long>(
                        row.traffic.invalidations),
                    static_cast<unsigned long long>(
                        row.traffic.busUpgrades),
                    static_cast<unsigned long long>(
                        row.traffic.c2cWords),
                    static_cast<unsigned long long>(
                        row.traffic.snoopWritebackWords));
    }
    std::printf("\n%s\n", identical
                              ? "1-core anchor bit-identical; "
                                "oracle agrees on every cell"
                              : "COHERENCY GATE FAILED");

    return bench::finishBench(
        "mesi",
        strfmt("{\"bench\":\"mesi\",\"traces\":%zu,\"refs\":%llu,"
               "\"ms_1core\":%.3f,\"ms_2core\":%.3f,"
               "\"ms_4core\":%.3f,"
               "\"ns_per_ref_1core\":%.2f,\"ns_per_ref_2core\":%.2f,"
               "\"ns_per_ref_4core\":%.2f,"
               "\"inval_2core\":%llu,\"inval_4core\":%llu,"
               "\"upgrades_4core\":%llu,\"c2c_words_4core\":%llu,"
               "\"snoop_wb_words_4core\":%llu,"
               "\"bit_identical\":%s}",
               traces.size(),
               static_cast<unsigned long long>(rows[0].refs),
               rows[0].ms, rows[1].ms, rows[2].ms, rows[0].nsPerRef(),
               rows[1].nsPerRef(), rows[2].nsPerRef(),
               static_cast<unsigned long long>(
                   rows[1].traffic.invalidations),
               static_cast<unsigned long long>(
                   rows[2].traffic.invalidations),
               static_cast<unsigned long long>(
                   rows[2].traffic.busUpgrades),
               static_cast<unsigned long long>(
                   rows[2].traffic.c2cWords),
               static_cast<unsigned long long>(
                   rows[2].traffic.snoopWritebackWords),
               identical ? "true" : "false"),
        /*gate_enforced=*/true, identical);
}
