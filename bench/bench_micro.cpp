/**
 * @file
 * google-benchmark microbenchmarks for the simulator itself (an
 * engineering benchmark, not a paper experiment): cache access
 * throughput across geometries and policies, sweep-runner scaling,
 * VM trace-generation speed, and the Mattson stack analyzer.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "cache/cache.hh"
#include "multi/miss_classifier.hh"
#include "multi/stack_analyzer.hh"
#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_file.hh"
#include "vm/machine.hh"
#include "vm/program_library.hh"
#include "workload/synthetic.hh"

using namespace occsim;

namespace {

/** A shared medium-locality trace for the cache benchmarks. */
const VectorTrace &
benchTrace()
{
    static const VectorTrace trace = [] {
        SyntheticParams params;
        params.seed = 7;
        return makeSyntheticTrace(params, 200000, "bench");
    }();
    return trace;
}

void
BM_CacheAccess(benchmark::State &state)
{
    const auto block = static_cast<std::uint32_t>(state.range(0));
    const auto sub = static_cast<std::uint32_t>(state.range(1));
    const VectorTrace &trace = benchTrace();
    for (auto _ : state) {
        Cache cache(makeConfig(1024, block, sub, 2));
        for (const MemRef &ref : trace.refs())
            benchmark::DoNotOptimize(cache.access(ref));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

/** The historical sweep inner loop: one virtual TraceSource::next()
 *  call plus one access() (a one-record kernel call) per reference. */
void
BM_CacheAccessVirtual(benchmark::State &state)
{
    const auto block = static_cast<std::uint32_t>(state.range(0));
    const auto sub = static_cast<std::uint32_t>(state.range(1));
    VectorTrace trace = benchTrace();
    for (auto _ : state) {
        Cache cache(makeConfig(1024, block, sub, 2));
        trace.reset();
        TraceSource &source = trace;
        MemRef ref;
        while (source.next(ref))
            benchmark::DoNotOptimize(cache.access(ref));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

/** The batched-engine inner loop: a flat packed span through the
 *  specialized kernel — same work as BM_CacheAccess minus the
 *  per-reference policy dispatch (and minus the virtual next() of
 *  BM_CacheAccessVirtual). Packing is done once, outside the timed
 *  region, as in a real sweep. */
void
BM_CacheReplayPacked(benchmark::State &state)
{
    const auto block = static_cast<std::uint32_t>(state.range(0));
    const auto sub = static_cast<std::uint32_t>(state.range(1));
    const PackedTrace packed(benchTrace());
    for (auto _ : state) {
        Cache cache(makeConfig(1024, block, sub, 2));
        cache.replayPacked(packed.data(), packed.size());
        benchmark::DoNotOptimize(cache.stats().misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(packed.size()));
}

void
BM_CacheAccessLoadForward(benchmark::State &state)
{
    const VectorTrace &trace = benchTrace();
    for (auto _ : state) {
        CacheConfig config = makeConfig(1024, 16, 2, 2);
        config.fetch = FetchPolicy::LoadForward;
        Cache cache(config);
        for (const MemRef &ref : trace.refs())
            benchmark::DoNotOptimize(cache.access(ref));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_CacheReplayPackedLoadForward(benchmark::State &state)
{
    const PackedTrace packed(benchTrace());
    for (auto _ : state) {
        CacheConfig config = makeConfig(1024, 16, 2, 2);
        config.fetch = FetchPolicy::LoadForward;
        Cache cache(config);
        cache.replayPacked(packed.data(), packed.size());
        benchmark::DoNotOptimize(cache.stats().misses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(packed.size()));
}

void
BM_SequentialSweep(benchmark::State &state)
{
    const auto num_configs = static_cast<std::size_t>(state.range(0));
    std::vector<CacheConfig> configs;
    for (std::size_t i = 0; i < num_configs; ++i) {
        configs.push_back(makeConfig(64u << (i % 5), 16, 8, 2));
    }
    const VectorTrace &trace = benchTrace();
    for (auto _ : state) {
        std::uint64_t misses = 0;
        for (const CacheConfig &config : configs) {
            VectorTrace copy = trace;
            Cache cache(config);
            cache.run(copy);
            cache.finalizeResidencies();
            misses += cache.stats().misses();
        }
        benchmark::DoNotOptimize(misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size() * num_configs));
}

void
BM_VmTraceGeneration(benchmark::State &state)
{
    Program program =
        assemble(progQuickSort(1024), MachineConfig::word16());
    for (auto _ : state) {
        VmTraceSource source(program, "qsort", true);
        VectorTrace trace = collect(source, 100000);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 100000);
}

void
BM_StackAnalyzer(benchmark::State &state)
{
    const VectorTrace &trace = benchTrace();
    for (auto _ : state) {
        StackAnalyzer analyzer(16);
        analyzer.processTrace(trace);
        benchmark::DoNotOptimize(analyzer.missRatioForCapacity(64));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_CompressedTraceWrite(benchmark::State &state)
{
    const VectorTrace &trace = benchTrace();
    const std::string path = "/tmp/occsim_bench.otd";
    for (auto _ : state) {
        writeCompressedTrace(trace, path);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
    std::remove(path.c_str());
}

void
BM_CompressedTraceRead(benchmark::State &state)
{
    const VectorTrace &trace = benchTrace();
    const std::string path = "/tmp/occsim_bench_r.otd";
    writeCompressedTrace(trace, path);
    for (auto _ : state) {
        VectorTrace loaded = readTrace(path);
        benchmark::DoNotOptimize(loaded.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
    std::remove(path.c_str());
}

void
BM_MissClassifier(benchmark::State &state)
{
    const VectorTrace &trace = benchTrace();
    for (auto _ : state) {
        MissClassifier classifier(makeConfig(1024, 16, 16, 2));
        classifier.processTrace(trace);
        benchmark::DoNotOptimize(classifier.breakdown().misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

BENCHMARK(BM_CacheAccess)
    ->Args({16, 16})
    ->Args({16, 8})
    ->Args({16, 2})
    ->Args({64, 8});
BENCHMARK(BM_CacheAccessVirtual)
    ->Args({16, 16})
    ->Args({16, 8})
    ->Args({16, 2})
    ->Args({64, 8});
BENCHMARK(BM_CacheReplayPacked)
    ->Args({16, 16})
    ->Args({16, 8})
    ->Args({16, 2})
    ->Args({64, 8});
BENCHMARK(BM_CacheAccessLoadForward);
BENCHMARK(BM_CacheReplayPackedLoadForward);
BENCHMARK(BM_SequentialSweep)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK(BM_VmTraceGeneration);
BENCHMARK(BM_StackAnalyzer);
BENCHMARK(BM_CompressedTraceWrite);
BENCHMARK(BM_CompressedTraceRead);
BENCHMARK(BM_MissClassifier);

} // namespace

BENCHMARK_MAIN();
