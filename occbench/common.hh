/**
 * @file
 * Shared pieces of the occbench workloads: run options, the metric
 * record every workload fills, timing and percentile helpers, the
 * result digest behind the correctness gate, and the telemetry
 * snapshot the traced pass reads its per-layer numbers from.
 */

#ifndef OCCBENCH_COMMON_HH
#define OCCBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "multi/sweep_runner.hh"

namespace occbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
};

/** One reported number: value, unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

/** What one workload run produced. */
struct Outcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;  ///< operations run (sweeps, requests, checks)
    std::uint64_t failed = 0;     ///< mismatches, error frames, rejections

    void add(const std::string &name, double value,
             const std::string &unit, std::size_t samples = 1)
    {
        metrics.push_back(Metric{name, value, unit, samples});
    }
};

/**
 * Whether to set up once more after @p done rounds that began at
 * @p start: an untraced run sets up at least 3 times and until 1 s is
 * spent, at most 15 times, and reports the median as setup_s; a
 * traced run sets up once.
 */
bool moreSetups(const RunOptions &options, std::size_t done,
                Clock::time_point start);

/** Pool size of every workload: min(4, effective hardware threads). */
unsigned benchThreads();

double secondsSince(Clock::time_point start);
double millisSince(Clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p in (0, 100] of @p values (0 when
 *  empty). */
double percentile(std::vector<double> values, double p);

/**
 * Tail of @p values with at least ten samples above it: the 99th
 * percentile when that many lie above it, else the highest value that
 * has ten above it. With fewer than 21 samples no value above the
 * median qualifies, so it is the median (0 when empty).
 */
double tail(std::vector<double> values);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** 64-bit FNV-1a digest over every field of @p result. */
std::uint64_t resultDigest(const occsim::SweepResult &result);

/** Digest over every cell of @p grid, in grid order. */
std::uint64_t gridDigest(
    const std::vector<std::vector<occsim::SweepResult>> &grid);

/** Print the digest and the simulated ratios averaged over every
 *  cell, so two commits can be compared exactly. */
void printSimulatedSummary(
    const std::string &what,
    const std::vector<std::vector<occsim::SweepResult>> &grid);

/**
 * Stage spans and counters of the global telemetry registry at one
 * moment (src/obs records them; the traced pass enables it).
 */
struct LayerSnapshot
{
    std::map<std::string, double> stageMs;
    std::map<std::string, std::uint64_t> stageCalls;
    std::map<std::string, std::uint64_t> counters;

    double ms(const std::string &stage) const;
    std::uint64_t calls(const std::string &stage) const;
    std::uint64_t count(const std::string &counter) const;
};

/** Snapshot the global registry (the caller enables and resets it
 *  around the operations it traces). */
LayerSnapshot snapshotTelemetry();

/**
 * Add the engine-layer metrics every workload reports from one
 * traced snapshot covering @p sweeps runSweep calls: per-engine ns
 * per config-ref, route shares, pool utilization, and the sweep
 * overhead outside the pool and trace layers. @return the sum of
 * engine config-refs, for the reconciliation line.
 */
std::uint64_t addEngineLayers(Outcome &out, const LayerSnapshot &snap,
                              std::size_t sweeps, unsigned threads);

/** The per-layer metric names, in BENCHMARK.json order; every traced
 *  run reports each (0 where a layer is idle on the workload). */
extern const std::vector<std::pair<std::string, std::string>>
    kLayerMetrics;

} // namespace occbench

#endif // OCCBENCH_COMMON_HH
