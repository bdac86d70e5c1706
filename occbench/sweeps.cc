/**
 * @file
 * The sweep workloads (paper_grid, long_trace, mesi_4core): one
 * runSweep call per iteration over inputs built once in set-up.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>

#include "check/coherence_check.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "obs/telemetry.hh"
#include "trace/packed_trace.hh"
#include "util/thread_pool.hh"
#include "workload/parallel.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"
#include "workloads.hh"

namespace occbench {

using namespace occsim;

namespace {

using TraceSet = std::vector<std::shared_ptr<const VectorTrace>>;

/** Fewest timed sweeps a run reports, however long they take. */
constexpr std::size_t kMinSweeps = 3;

struct SweepWorkload
{
    std::string name;
    std::vector<CacheConfig> configs;
    ScenarioConfig scenario;
    /** Builds the traces from the seed (the timed set-up). */
    std::function<TraceSet(ThreadPool &)> build;
};

/** Print how many configs the router sent to each engine. */
void
printRoutes(const SweepReport &report)
{
    if (report.manifest.sweeps.empty())
        return;
    std::map<std::string, std::size_t> routes;
    for (const obs::ConfigRoute &route : report.manifest.sweeps.back().routes)
        ++routes[route.engine];
    std::printf("routes");
    for (const auto &[engine, count] : routes)
        std::printf(" %s=%zu", engine.c_str(), count);
    std::printf("\n");
}

/** References of the mesi_4core trace the MESI oracle replays. */
constexpr std::size_t kOraclePrefix = 30000;

/**
 * Re-run every config on one seeded trace, outside the timed region,
 * on an independent path: SweepEngine::DirectOnly (one plain Cache per
 * cell) for single-cache sweeps. Multicore scenarios have only the
 * coherent engine, so there the packed-trace input path replaces the
 * MemRef stream, and the flat-snooping oracle checks every counter of
 * a prefix. Each cell must equal the timed sweep's bit for bit.
 */
void
checkSampledTrace(const SweepWorkload &w, const TraceSet &traces,
                  const SweepReport &reference, std::uint64_t seed,
                  ThreadPool &pool, Outcome &out)
{
    const std::size_t t =
        std::mt19937_64(seed ^ 0x6f636362656e6368ull)() % traces.size();
    SweepRequest check;
    check.configs = w.configs;
    check.scenario = w.scenario;
    check.pool = &pool;
    check.wantAverage = false;
    check.label = w.name + ":check";
    if (w.scenario.multicore()) {
        check.packedTraces = {packedTraceShared(traces[t])};
    } else {
        check.traces = {traces[t]};
        check.engine = SweepEngine::DirectOnly;
    }
    const SweepReport got = runSweep(check);
    for (std::size_t c = 0; c < w.configs.size(); ++c) {
        ++out.attempted;
        if (resultDigest(got.perTrace[0][c]) !=
            resultDigest(reference.perTrace[t][c])) {
            std::printf("MISMATCH %s cell (trace %zu, config %s)\n",
                        w.name.c_str(), t,
                        w.configs[c].fullName().c_str());
            ++out.failed;
        }
    }
    if (!w.scenario.multicore())
        return;
    const std::vector<MemRef> &refs = traces[t]->refs();
    const std::vector<MemRef> prefix(
        refs.begin(),
        refs.begin() + std::min(refs.size(), kOraclePrefix));
    for (const CacheConfig &config : w.configs) {
        ++out.attempted;
        const CoherenceCaseReport oracle =
            runCoherencyCase(w.scenario, config, prefix);
        for (const std::string &line : oracle.diffs) {
            std::printf("MISMATCH %s oracle (config %s): %s\n",
                        w.name.c_str(), config.fullName().c_str(),
                        line.c_str());
        }
        out.failed += oracle.mismatch() ? 1 : 0;
    }
}

Outcome
runSweepWorkload(const SweepWorkload &w, const RunOptions &options)
{
    Outcome out;
    const unsigned threads = benchThreads();
    ThreadPool pool(threads);
    std::printf("workload %s seed %llu threads %u hw_threads %u\n",
                w.name.c_str(),
                static_cast<unsigned long long>(options.seed), threads,
                effectiveHardwareThreads());

    // Set-up: trace generation, repeated so setup_s is a median.
    TraceSet traces;
    std::vector<double> setup_s;
    const auto setup_start = Clock::now();
    while (moreSetups(options, setup_s.size(), setup_start)) {
        traces.clear();
        const auto start = Clock::now();
        traces = w.build(pool);
        setup_s.push_back(secondsSince(start));
    }
    std::uint64_t built_refs = 0;
    for (const auto &trace : traces)
        built_refs += trace->size();

    SweepRequest request;
    request.traces = traces;
    request.configs = w.configs;
    request.scenario = w.scenario;
    request.pool = &pool;
    request.label = w.name;

    // Warm-up sweep, untimed: its digest is the one every timed sweep
    // must reproduce.
    const SweepReport reference = runSweep(request);
    const std::uint64_t reference_digest = gridDigest(reference.perTrace);
    ++out.attempted;
    const double cfgrefs = static_cast<double>(reference.refs) *
                           static_cast<double>(w.configs.size());
    std::printf("cells %zu traces x %zu configs, %llu refs per config\n",
                traces.size(), w.configs.size(),
                static_cast<unsigned long long>(reference.refs));
    printSimulatedSummary(w.name, reference.perTrace);
    printRoutes(reference);

    const auto timed_sweep = [&]() {
        const auto start = Clock::now();
        const SweepReport report = runSweep(request);
        const double wall = secondsSince(start);
        ++out.attempted;
        if (gridDigest(report.perTrace) != reference_digest) {
            std::printf("MISMATCH %s: sweep digest differs from the "
                        "warm-up sweep\n",
                        w.name.c_str());
            ++out.failed;
        }
        return wall;
    };
    // Keep going while the next sweep is expected to end in time.
    const auto run_start = Clock::now();
    const auto more = [&](std::size_t done, std::size_t min_rounds,
                          double per_round) {
        return done < min_rounds ||
               secondsSince(run_start) + per_round <= options.seconds;
    };

    if (!options.traced) {
        std::vector<double> walls;
        while (more(walls.size(), kMinSweeps, median(walls)))
            walls.push_back(timed_sweep());
        double total = 0.0;
        std::printf("sweep_ms");
        for (const double wall : walls) {
            total += wall;
            std::printf(" %.1f", wall * 1e3);
        }
        std::printf("\n");
        out.add("setup_s", median(setup_s), "s", setup_s.size());
        out.add("cfgref_ns", median(walls) * 1e9 / cfgrefs, "ns",
                walls.size());
        out.add("lat_ms_p50", median(walls) * 1e3, "ms", walls.size());
        out.add("lat_ms_tail", tail(walls) * 1e3, "ms", walls.size());
        out.add("ops_per_s", static_cast<double>(walls.size()) / total,
                "1/s", walls.size());
    } else {
        // Alternate untraced and traced sweeps: the traced ones feed
        // the layer metrics, the pairs give the tracing overhead.
        std::vector<double> untraced;
        std::vector<double> traced;
        obs::telemetry().reset();
        while (more(traced.size(), 1, 2.0 * median(untraced))) {
            untraced.push_back(timed_sweep());
            obs::setTelemetryEnabled(true);
            traced.push_back(timed_sweep());
            obs::setTelemetryEnabled(false);
        }
        const LayerSnapshot snap = snapshotTelemetry();
        double traced_ms = 0.0;
        for (const double wall : traced)
            traced_ms += wall * 1e3;

        out.add("workload.build_ns_per_ref",
                median(setup_s) * 1e9 / static_cast<double>(built_refs),
                "ns", setup_s.size());
        const std::uint64_t engine_refs =
            addEngineLayers(out, snap, traced.size(), threads);
        const double named_ms = snap.ms("pool.parallel_for") +
                                snap.ms("trace.pack") +
                                snap.ms("trace.shard");
        const double tracing_ns =
            (median(traced) - median(untraced)) * 1e9 / cfgrefs;
        const double unaccounted = (traced_ms - named_ms) / traced_ms;
        out.add("obs.tracing_overhead", tracing_ns, "ns", traced.size());
        out.add("obs.unaccounted_frac", unaccounted, "frac",
                traced.size());
        std::printf("reconcile: engine config-refs %llu of sweep.refs "
                    "%llu; unaccounted %.4f of runSweep wall, tracing "
                    "overhead %+.4f ns per config-ref\n",
                    static_cast<unsigned long long>(engine_refs),
                    static_cast<unsigned long long>(
                        snap.count("sweep.refs")),
                    unaccounted, tracing_ns);
    }

    checkSampledTrace(w, traces, reference, options.seed, pool, out);
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

} // namespace

Outcome
runPaperGrid(const RunOptions &options)
{
    SweepWorkload w;
    w.name = "paper_grid";
    for (std::uint32_t net = 32; net <= 1024; net *= 2) {
        for (const CacheConfig &config : paperGrid(net, 2))
            w.configs.push_back(config);
    }
    // The PDP-11 traces are deterministic VM programs: the seed only
    // picks the trace the exactness gate re-runs.
    w.build = [](ThreadPool &pool) {
        clearTraceCache();
        const Suite suite = pdp11Suite();
        TraceSet traces(suite.traces.size());
        pool.parallelFor(traces.size(), [&](std::size_t i) {
            traces[i] = buildTraceShared(suite.traces[i], 1000000);
        });
        return traces;
    };
    return runSweepWorkload(w, options);
}

Outcome
runLongTrace(const RunOptions &options)
{
    SweepWorkload w;
    w.name = "long_trace";
    // None is single-pass eligible (sub-block < block, no write-
    // allocate, Random, or prefetch) and no two share a fused key, so
    // the set-shardable ones shard and the rest batch.
    const auto config = [](std::uint32_t kb, std::uint32_t block,
                           std::uint32_t sub, std::uint32_t assoc,
                           ReplacementPolicy replacement,
                           FetchPolicy fetch, bool copy_back) {
        CacheConfig c = makeConfig(kb * 1024, block, sub, 4);
        c.assoc = assoc;
        c.replacement = replacement;
        c.fetch = fetch;
        c.write = copy_back ? WritePolicy::CopyBack
                            : WritePolicy::WriteThrough;
        c.writeAllocate = copy_back;
        return c;
    };
    using R = ReplacementPolicy;
    using F = FetchPolicy;
    w.configs = {
        config(4, 16, 8, 1, R::LRU, F::Demand, true),
        config(8, 32, 16, 2, R::FIFO, F::Demand, false),
        config(16, 32, 32, 8, R::LRU, F::Demand, false),
        config(64, 64, 32, 8, R::LRU, F::LoadForward, true),
        config(32, 64, 16, 1, R::LRU, F::Demand, false),
        config(32, 16, 16, 2, R::Random, F::Demand, true),
        config(4, 32, 16, 2, R::Random, F::Demand, false),
        config(16, 16, 8, 2, R::LRU, F::PrefetchNextOnMiss, true),
        config(64, 32, 32, 8, R::FIFO, F::PrefetchNextOnMiss, false),
    };
    const std::uint64_t seed = options.seed;
    w.build = [seed](ThreadPool &) {
        SyntheticParams params;
        params.wordSize = 4;
        params.codeBase = 0x00100000;
        params.codeSize = 512 * 1024;
        params.dataBase = 0x01000000;
        params.dataSize = 4 * 1024 * 1024;
        params.stackBase = 0x02000000;
        params.stackWindow = 2048;
        params.writeFraction = 0.30;
        params.seed = seed;
        return TraceSet{std::make_shared<const VectorTrace>(
            makeSyntheticTrace(params, 16u << 20, "long_trace"))};
    };
    return runSweepWorkload(w, options);
}

Outcome
runMesi4Core(const RunOptions &options)
{
    SweepWorkload w;
    w.name = "mesi_4core";
    w.scenario.cores = 4;
    // The MESI subset: copy-back, write-allocate, demand, unified.
    for (const std::uint32_t net : {1024u, 4096u, 16384u}) {
        for (const std::uint32_t block : {16u, 32u}) {
            for (const std::uint32_t assoc : {1u, 4u}) {
                CacheConfig c = makeConfig(net, block, block, 2);
                c.assoc = assoc;
                c.write = WritePolicy::CopyBack;
                w.configs.push_back(c);
            }
        }
    }
    const std::uint64_t seed = options.seed;
    w.build = [seed](ThreadPool &) {
        ParallelWorkloadParams params;
        params.cores = 4;
        params.refsPerCore = 200000;
        params.wordSize = 2;
        params.seed = seed;
        TraceSet traces;
        for (VectorTrace &trace : makeParallelSuite(params))
            traces.push_back(
                std::make_shared<const VectorTrace>(std::move(trace)));
        return traces;
    };
    return runSweepWorkload(w, options);
}

} // namespace occbench
