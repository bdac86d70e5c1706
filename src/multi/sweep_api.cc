#include "multi/sweep_api.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "cache/cache_geometry.hh"
#include "coherence/coherent_system.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

namespace {

/**
 * Scenario path: every (trace, config) pair is one CoherentSystem
 * task — the coherent engine is a strictly serial bus model, so the
 * grid cell is the unit of parallelism. Serves both the MemRef and
 * the packed-trace inputs (core routing comes from MemRef::core /
 * the packed core bits either way).
 */
std::uint64_t
runScenarioGrid(const SweepRequest &request, SweepReport &report)
{
    const auto &configs = request.configs;
    const std::uint64_t max_refs = request.maxRefs;
    const bool packed_path = !request.packedTraces.empty();
    const std::size_t num_traces = packed_path
                                       ? request.packedTraces.size()
                                       : request.traces.size();

    report.perTrace.assign(num_traces,
                           std::vector<SweepResult>(configs.size()));
    auto &out = report.perTrace;

    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_traces * configs.size());
    std::uint64_t refs = 0;
    for (std::size_t t = 0; t < num_traces; ++t) {
        const std::uint64_t limit = refLimit(
            packed_path ? request.packedTraces[t]->size()
                        : request.traces[t]->refs().size(),
            max_refs);
        refs += limit;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            tasks.push_back([&, t, c, limit] {
                OCCSIM_TELEM_STAGE("engine.coherent");
                CoherentSystem system(request.scenario, configs[c]);
                if (packed_path) {
                    system.replayPacked(
                        request.packedTraces[t]->data(),
                        static_cast<std::size_t>(limit));
                } else {
                    system.replay(request.traces[t]->refs().data(),
                                  static_cast<std::size_t>(limit));
                }
                system.finalize();
                out[t][c] = summarizeCoherent(configs[c], system);
                OCCSIM_TELEM_COUNT("engine.coherent.refs", limit);
                OCCSIM_TELEM_COUNT("engine.coherent.generic_refs",
                                   system.genericKernel() ? limit : 0);
                OCCSIM_TELEM_COUNT("engine.coherent.bytes",
                                   limit * (packed_path
                                                ? sizeof(PackedRecord)
                                                : sizeof(MemRef)));
            });
        }
    }
    poolOrGlobal(request.pool)
        .parallelFor(tasks.size(),
                     [&](std::size_t i) { tasks[i](); });
    return refs;
}

/** Sampling-engine activity of one sweep, for the manifest. */
struct SampleInfo
{
    std::size_t sampledRuns = 0;
    std::uint64_t units = 0;
    std::uint64_t measuredRefs = 0;
};

/**
 * Sampled path: one SampleReplay per trace over the shared packed
 * trace, run as two pool phases — every warming task (one per
 * (trace, block-size family), producing the live-point checkpoints),
 * then every measure task (one per (trace, config)). The barrier
 * between the phases is required: a measure task reads the
 * checkpoints its trace's warm tasks write.
 */
std::uint64_t
runSampledGrid(const SweepRequest &request, SweepReport &report,
               SampleInfo &sample_info)
{
    const auto &traces = request.traces;
    std::uint64_t refs = 0;

    std::vector<std::unique_ptr<SampleReplay>> engines;
    std::vector<std::shared_ptr<const PackedTrace>> packed;
    engines.reserve(traces.size());
    packed.reserve(traces.size());
    for (const auto &trace : traces) {
        packed.push_back(packedTraceShared(trace));
        engines.push_back(std::make_unique<SampleReplay>(
            request.configs, request.sample));
        engines.back()->prepare(*packed.back(), request.maxRefs);
        refs += refLimit(trace->refs().size(), request.maxRefs);
    }

    std::vector<std::function<void()>> warm_tasks;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        SampleReplay *eng = engines[t].get();
        const PackedTrace *trace = packed[t].get();
        for (std::size_t f = 0; f < eng->numWarmTasks(); ++f) {
            warm_tasks.push_back(
                [eng, trace, f] { eng->runWarmTask(f, *trace); });
        }
    }
    poolOrGlobal(request.pool)
        .parallelFor(warm_tasks.size(),
                     [&](std::size_t i) { warm_tasks[i](); });

    std::vector<std::function<void()>> measure_tasks;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        SampleReplay *eng = engines[t].get();
        const PackedTrace *trace = packed[t].get();
        for (std::size_t c = 0; c < eng->numMeasureTasks(); ++c) {
            measure_tasks.push_back(
                [eng, trace, c] { eng->runMeasureTask(c, *trace); });
        }
    }
    poolOrGlobal(request.pool)
        .parallelFor(measure_tasks.size(),
                     [&](std::size_t i) { measure_tasks[i](); });

    report.perTrace.reserve(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        report.perTrace.push_back(engines[t]->results());
        sample_info.units += engines[t]->units().size();
        sample_info.measuredRefs += engines[t]->measuredRefs();
    }
    sample_info.sampledRuns = traces.size() * request.configs.size();
    return refs;
}

} // namespace

const char *
sweepEngineName(SweepEngine engine)
{
    switch (engine) {
    case SweepEngine::Auto:
        return "auto";
    case SweepEngine::DirectOnly:
        return "direct_only";
    case SweepEngine::CrossCheck:
        return "cross_check";
    case SweepEngine::Sampled:
        return "sampled";
    }
    return "unknown";
}

std::string
validateSweepRequest(const SweepRequest &request)
{
    if (request.traces.empty() == request.packedTraces.empty())
        return "a sweep takes either traces or packedTraces, not both "
               "or neither";
    if (request.configs.empty())
        return "sweep request names no configs";
    if (std::count(request.traces.begin(), request.traces.end(),
                   nullptr) +
            std::count(request.packedTraces.begin(),
                       request.packedTraces.end(), nullptr) >
        0)
        return "null trace in sweep request";
    for (const CacheConfig &config : request.configs) {
        std::string why = validateConfig(config);
        if (why.empty() && request.engine == SweepEngine::Sampled &&
            config.partition != CachePartition::Unified)
            why = "the sampling engine runs unified caches only";
        if (!why.empty()) {
            return strfmt("invalid config %s: %s",
                          config.shortName().c_str(), why.c_str());
        }
    }
    const std::string why =
        validateScenario(request.scenario, request.configs);
    if (!why.empty())
        return "invalid scenario: " + why;
    // A multicore scenario runs on the coherent engine alone, and
    // packed records carry no MemRef stream for the direct engine.
    if ((request.scenario.multicore() || !request.packedTraces.empty()) &&
        request.engine != SweepEngine::Auto) {
        return strfmt("%s requires SweepEngine::Auto (got %s)",
                      request.scenario.multicore()
                          ? "a multicore scenario"
                          : "packedTraces",
                      sweepEngineName(request.engine));
    }
    return "";
}

SweepReport
runSweep(const SweepRequest &request)
{
    const std::string invalid = validateSweepRequest(request);
    occsim_assert(invalid.empty(), "invalid sweep request: %s",
                  invalid.c_str());
    const bool multicore = request.scenario.multicore();

    const auto start = std::chrono::steady_clock::now();

    SweepReport report;
    obs::SweepRecord record;
    ShardTelemetry shard_telem;
    SampleInfo sample_info;
    ThreadPool &pool = poolOrGlobal(request.pool);
    const auto threads = static_cast<unsigned>(pool.size());
    // Manifest route per config: the planned route on the exact
    // single-cache paths, the one engine of the others.
    std::vector<const char *> engines(
        request.configs.size(), multicore ? "coherent" : "sample");
    std::uint64_t refs = 0;
    if (multicore) {
        refs = runScenarioGrid(request, report);
    } else if (request.engine == SweepEngine::Sampled) {
        refs = runSampledGrid(request, report, sample_info);
    } else {
        std::vector<std::uint64_t> limits;
        for (const auto &trace : request.traces)
            limits.push_back(
                refLimit(trace->refs().size(), request.maxRefs));
        for (const auto &trace : request.packedTraces)
            limits.push_back(refLimit(trace->size(), request.maxRefs));
        SweepPlan plan =
            planSweep(request.configs, request.engine, limits, threads);
        refs = runSweepPlan(plan, request.traces, request.packedTraces,
                            request.maxRefs, pool);
        for (std::size_t t = 0; t < plan.traces.size(); ++t)
            report.perTrace.push_back(planResults(plan, t));
        const std::size_t runs = plan.traces.size();
        record.crossCheckSamples = runs * plan.shadowIndex.size();
        record.fusedRuns = runs * plan.fusedGroups.size();
        record.fusedConfigs = static_cast<std::size_t>(
            std::count(plan.route.begin(), plan.route.end(),
                       SweepRoute::Fused));
        shard_telem = planShardTelemetry(plan);
        for (std::size_t c = 0; c < engines.size(); ++c)
            engines[c] = routeName(plan.route[c]);
    }
    report.refs = refs;

    if (request.wantAverage)
        report.average = averageResults(report.perTrace);

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t simulated =
        refs * static_cast<std::uint64_t>(request.configs.size());

    // Sweep-level telemetry: an explicit request sink records
    // unconditionally; otherwise the global registry (subject to the
    // global enable flag).
    const auto ns = static_cast<std::uint64_t>(wall_ms * 1e6);
    if (request.telemetry != nullptr) {
        request.telemetry->stageAdd("sweep", ns);
        request.telemetry->counterAdd("sweep.refs", simulated);
    } else if (obs::telemetryEnabled()) {
        obs::telemetry().stageAdd("sweep", ns);
        obs::telemetry().counterAdd("sweep.refs", simulated);
    }

    // Trace identities, routing and timing go to the session
    // manifest and, for this sweep alone, to report.manifest.
    report.manifest = obs::manifestHeader();
    for (const auto &trace : request.traces)
        report.manifest.traces.push_back(
            obs::TraceRecord{trace->name(), trace->refs().size()});
    for (const auto &trace : request.packedTraces)
        report.manifest.traces.push_back(
            obs::TraceRecord{trace->name(), trace->size()});
    for (const obs::TraceRecord &trace : report.manifest.traces)
        obs::recordTrace(trace.name, trace.refs);

    record.label = request.label.empty() ? "sweep" : request.label;
    record.engineMode = sweepEngineName(request.engine);
    record.threads = threads;
    record.numTraces = report.perTrace.size();
    record.maxRefs = request.maxRefs;
    record.refsSimulated = simulated;
    record.wallMs = wall_ms;
    record.shardedRuns = shard_telem.shardedRuns;
    record.shardMaxShards = shard_telem.maxShards;
    record.shardMaxRefs = shard_telem.maxShardRefs;
    record.shardMinRefs = shard_telem.minShardRefs;
    record.sampledRuns = sample_info.sampledRuns;
    if (sample_info.sampledRuns > 0) {
        record.sampleUnitRefs = request.sample.unitRefs;
        record.sampleIntervalUnits = request.sample.intervalUnits;
        record.sampleWarmupRefs = request.sample.warmupRefs;
        record.sampleUnits = sample_info.units;
        record.sampleMeasuredRefs = sample_info.measuredRefs;
    }
    // Sampled manifests carry the per-config miss-ratio estimate
    // with its uncertainty (cross-trace combined, same arithmetic as
    // SweepReport::average); coherent manifests likewise carry the
    // per-config coherency-traffic columns.
    std::vector<SweepResult> sampled_avg;
    if (request.engine == SweepEngine::Sampled) {
        sampled_avg = request.wantAverage
                          ? report.average
                          : averageResults(report.perTrace);
    }
    std::vector<SweepResult> coherent_avg;
    if (multicore) {
        coherent_avg = request.wantAverage
                           ? report.average
                           : averageResults(report.perTrace);
        record.scenarioCores = request.scenario.cores;
        // Bus-counter totals over every (trace, config) run.
        for (const auto &trace_results : report.perTrace) {
            for (const SweepResult &result : trace_results) {
                const CoherencySummary &coh = result.coherency;
                record.cohBusReads += coh.busReads;
                record.cohBusReadForOwnership +=
                    coh.busReadForOwnership;
                record.cohBusUpgrades += coh.busUpgrades;
                record.cohInvalidations += coh.invalidations;
                record.cohCacheToCacheTransfers +=
                    coh.cacheToCacheTransfers;
                record.cohC2cWords += coh.c2cWords;
                record.cohSnoopWritebackWords +=
                    coh.snoopWritebackWords;
            }
        }
    }
    record.routes.reserve(request.configs.size());
    for (std::size_t c = 0; c < request.configs.size(); ++c) {
        const CacheConfig &config = request.configs[c];
        obs::ConfigRoute route;
        route.config = config.shortName();
        route.engine = engines[c];
        if (!sampled_avg.empty() && sampled_avg[c].sampled.active) {
            route.sampled = true;
            route.missRatioMean =
                sampled_avg[c].sampled.missRatio.mean;
            route.missRatioStdErr =
                sampled_avg[c].sampled.missRatio.stdErr;
        }
        if (!coherent_avg.empty() &&
            coherent_avg[c].coherency.active) {
            route.coherent = true;
            route.cohInvalPerKiloRef =
                coherent_avg[c].coherency.invalidationsPerKiloRef;
            route.cohTrafficRatio =
                coherent_avg[c].coherency.coherenceTrafficRatio;
        }
        record.routes.push_back(route);
    }
    obs::recordSweep(record);
    report.manifest.sweeps.push_back(std::move(record));
    return report;
}

} // namespace occsim
