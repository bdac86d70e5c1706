/**
 * @file
 * Determinism tests for the parallel sweep engine: results must be
 * bit-identical to sequential per-config Cache simulation — same
 * per-config stats, same averageResults output — regardless of thread
 * count. Uses real VM traces (the paper's workloads), not synthetic
 * streams, so the full trace-build + simulate pipeline is covered.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "workload/suites.hh"

#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;

/** One-trace runSweep of @p configs on a pool of @p threads. */
SweepReport
sweepOne(const std::vector<CacheConfig> &configs,
         const std::shared_ptr<const VectorTrace> &trace, unsigned threads,
         std::uint64_t max_refs = 0)
{
    ThreadPool pool(threads);
    SweepRequest request;
    request.traces = {trace};
    request.configs = configs;
    request.pool = &pool;
    request.maxRefs = max_refs;
    return runSweep(request);
}

/** Reference engine: one direct runSingle per config, sequentially. */
std::vector<SweepResult>
sequentialSweep(const std::vector<CacheConfig> &configs,
                const VectorTrace &trace, std::uint64_t max_refs = 0)
{
    std::vector<SweepResult> out;
    out.reserve(configs.size());
    for (const CacheConfig &config : configs) {
        VectorTrace copy = trace;
        out.push_back(runSingle(config, copy, max_refs));
    }
    return out;
}

} // namespace

TEST(ParallelSweep, BitIdenticalToSequentialOverPaperGrid)
{
    const Suite suite = pdp11Suite();
    const WorkloadSpec &spec = suite.traces.front();
    const auto trace = buildTraceShared(spec, kRefs);
    const auto configs = paperGrid(1024, suite.profile.wordSize);

    const auto expected = sequentialSweep(configs, *trace);

    const SweepReport report = sweepOne(configs, trace, 4);
    EXPECT_EQ(report.refs, trace->size());
    expectIdenticalGrid(report.perTrace, {expected});
}

TEST(ParallelSweep, RunSweepMatchesSequentialSuitePass)
{
    const Suite suite = z8000CompilerSuite();
    const auto configs = paperGrid(256, suite.profile.wordSize);

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    for (const WorkloadSpec &spec : suite.traces)
        traces.push_back(buildTraceShared(spec, kRefs));

    // Reference: direct sequential simulation, one pass per trace.
    std::vector<std::vector<SweepResult>> expected;
    for (const auto &trace : traces)
        expected.push_back(sequentialSweep(configs, *trace));

    ThreadPool pool(4);
    SweepRequest request;
    request.traces = traces;
    request.configs = configs;
    request.pool = &pool;
    const SweepReport report = runSweep(request);
    expectIdenticalGrid(report.perTrace, expected);

    // And the paper's unweighted averages are bit-identical too.
    const auto expected_avg = averageResults(expected);
    ASSERT_EQ(report.average.size(), expected_avg.size());
    for (std::size_t c = 0; c < expected_avg.size(); ++c)
        expectIdentical(report.average[c], expected_avg[c]);
}

TEST(ParallelSweep, RespectsMaxRefs)
{
    const Suite suite = pdp11Suite();
    const auto trace = buildTraceShared(suite.traces.front(), kRefs);
    const auto configs = paperGrid(64, suite.profile.wordSize);

    const SweepReport report = sweepOne(configs, trace, 2, 500);
    EXPECT_EQ(report.refs, 500u);
    expectIdenticalGrid(report.perTrace,
                        {sequentialSweep(configs, *trace, 500)});
}

TEST(ParallelSweep, SharedTraceIsReusedNotRebuilt)
{
    const Suite suite = z8000Suite();
    const WorkloadSpec &spec = suite.traces.front();
    const auto first = buildTraceShared(spec, 5000);
    const auto second = buildTraceShared(spec, 5000);
    // Same spec and length: the VM ran once; both handles share the
    // same immutable trace.
    EXPECT_EQ(first.get(), second.get());
    // A different length is a different cache entry.
    const auto longer = buildTraceShared(spec, 6000);
    EXPECT_NE(first.get(), longer.get());
    EXPECT_EQ(longer->size(), 6000u);
}

TEST(ParallelSweep, RunSuiteMatchesManualSequentialAveraging)
{
    const Suite suite = z8000CompilerSuite();
    const auto configs = table7Grid(64, suite.profile.wordSize);

    const SuiteRun run = runSuite(suite, configs, kRefs);

    std::vector<std::vector<SweepResult>> expected;
    for (const WorkloadSpec &spec : suite.traces) {
        const VectorTrace trace = buildTrace(spec, kRefs);
        expected.push_back(sequentialSweep(configs, trace));
    }
    const auto expected_avg = averageResults(expected);

    ASSERT_EQ(run.average.size(), expected_avg.size());
    for (std::size_t c = 0; c < expected_avg.size(); ++c)
        expectIdentical(run.average[c], expected_avg[c]);
}
