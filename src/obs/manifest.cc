#include "obs/manifest.hh"

#include <cstdlib>
#include <deque>
#include <mutex>

#include "obs/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

#ifndef OCCSIM_GIT_DESCRIBE
#define OCCSIM_GIT_DESCRIBE "unknown"
#endif
#ifndef OCCSIM_BUILD_TYPE
#define OCCSIM_BUILD_TYPE "unknown"
#endif
#ifndef OCCSIM_BUILD_FLAGS
#define OCCSIM_BUILD_FLAGS ""
#endif

namespace occsim::obs {

namespace {

/** Process-wide manifest session state. */
struct Session
{
    std::mutex mutex;
    std::string path;
    std::string binary;
    std::vector<TraceRecord> traces;
    /** The newest kMaxRecordedSweeps of each; older ones are
     *  dropped and counted. */
    std::deque<SweepRecord> sweeps;
    std::deque<ServeRecord> serves;
    std::uint64_t sweepsDropped = 0;
    std::uint64_t servesDropped = 0;
    bool atexitRegistered = false;
};

Session &
session()
{
    // Never destroyed: the atexit writer runs during shutdown.
    static Session *s = new Session();
    return *s;
}

std::string
processName()
{
#if defined(__GLIBC__)
    if (program_invocation_short_name != nullptr &&
        *program_invocation_short_name != '\0')
        return program_invocation_short_name;
#endif
    return "occsim";
}

void
writeManifestAtExit()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(session().mutex);
        path = session().path;
    }
    if (!path.empty())
        writeManifest(path);
}

void
appendEngineUsage(std::vector<EngineUsage> &engines,
                  const std::vector<StageSnapshot> &stages,
                  const std::vector<CounterSnapshot> &counters,
                  const std::string &name)
{
    EngineUsage usage;
    usage.name = name;
    const std::string stage_name = "engine." + name;
    bool seen = false;
    for (const StageSnapshot &stage : stages) {
        if (stage.name == stage_name) {
            usage.wallMs = stage.wallMs;
            seen = true;
        }
    }
    for (const CounterSnapshot &counter : counters) {
        if (counter.name == stage_name + ".refs") {
            usage.refs = counter.value;
            seen = true;
        } else if (counter.name == stage_name + ".bytes") {
            usage.bytes = counter.value;
            seen = true;
        }
    }
    if (!seen)
        return;
    if (usage.wallMs > 0.0) {
        usage.mrefsPerSec = static_cast<double>(usage.refs) /
                            (usage.wallMs * 1e3);
    }
    engines.push_back(usage);
}

/** Append @p record to @p records, dropping (and counting) the
 *  oldest once kMaxRecordedSweeps are held. */
template <typename Record>
void
retainNewest(std::deque<Record> &records, std::uint64_t &dropped,
             const Record &record)
{
    if (records.size() >= kMaxRecordedSweeps) {
        records.pop_front();
        ++dropped;
    }
    records.push_back(record);
}

} // namespace

void
recordTrace(const std::string &name, std::uint64_t refs)
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const TraceRecord &trace : s.traces) {
        if (trace.name == name && trace.refs == refs)
            return;
    }
    s.traces.push_back(TraceRecord{name, refs});
}

void
recordSweep(const SweepRecord &record)
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    retainNewest(s.sweeps, s.sweepsDropped, record);
}

void
recordServe(const ServeRecord &record)
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    retainNewest(s.serves, s.servesDropped, record);
}

void
setManifestPath(const std::string &path)
{
    Session &s = session();
    bool register_atexit = false;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.path = path;
        if (!s.atexitRegistered) {
            s.atexitRegistered = true;
            register_atexit = true;
        }
    }
    setTelemetryEnabled(true);
    if (register_atexit)
        std::atexit(writeManifestAtExit);
}

bool
manifestEnvHook()
{
    static const bool active = [] {
        const char *path = std::getenv("OCCSIM_MANIFEST");
        if (path == nullptr || *path == '\0')
            return false;
        setManifestPath(path);
        return true;
    }();
    return active;
}

std::string
manifestPath()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.path;
}

void
setManifestBinary(const std::string &name)
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.binary = name;
}

RunManifest
manifestHeader()
{
    RunManifest manifest;
    manifest.git = OCCSIM_GIT_DESCRIBE;
    manifest.buildType = OCCSIM_BUILD_TYPE;
    manifest.buildFlags = OCCSIM_BUILD_FLAGS;
    manifest.threads = configuredThreadCount();
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    manifest.binary = s.binary.empty() ? processName() : s.binary;
    return manifest;
}

RunManifest
currentManifest()
{
    RunManifest manifest = manifestHeader();
    manifest.stages = telemetry().stages();
    manifest.counters = telemetry().counters();

    std::uint64_t dropped = 0;
    std::uint64_t serves_dropped = 0;
    {
        Session &s = session();
        std::lock_guard<std::mutex> lock(s.mutex);
        manifest.traces = s.traces;
        manifest.sweeps.assign(s.sweeps.begin(), s.sweeps.end());
        manifest.serves.assign(s.serves.begin(), s.serves.end());
        dropped = s.sweepsDropped;
        serves_dropped = s.servesDropped;
    }
    if (dropped > 0) {
        manifest.counters.push_back(
            CounterSnapshot{"sweeps_dropped", dropped});
    }
    if (serves_dropped > 0) {
        manifest.counters.push_back(
            CounterSnapshot{"serves_dropped", serves_dropped});
    }

    for (const char *engine :
         {"direct", "batch", "shard", "fused", "shadow", "sample",
          "coherent"}) {
        appendEngineUsage(manifest.engines, manifest.stages,
                          manifest.counters, engine);
    }
    return manifest;
}

std::string
RunManifest::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", schema);
    w.kv("binary", binary);
    w.kv("git", git);
    w.key("build").beginObject();
    w.kv("type", buildType);
    w.kv("flags", buildFlags);
    w.endObject();
    w.kv("threads", std::uint64_t{threads});

    w.key("traces").beginArray();
    for (const TraceRecord &trace : traces) {
        w.beginObject();
        w.kv("name", trace.name);
        w.kv("refs", trace.refs);
        w.endObject();
    }
    w.endArray();

    w.key("sweeps").beginArray();
    for (const SweepRecord &sweep : sweeps) {
        w.beginObject();
        w.kv("label", sweep.label);
        w.kv("engine_mode", sweep.engineMode);
        w.kv("threads", std::uint64_t{sweep.threads});
        w.kv("traces", std::uint64_t{sweep.numTraces});
        w.kv("max_refs", sweep.maxRefs);
        w.kv("refs_simulated", sweep.refsSimulated);
        w.kv("wall_ms", sweep.wallMs);
        w.kv("cross_check_samples",
             std::uint64_t{sweep.crossCheckSamples});
        w.kv("sharded_runs", std::uint64_t{sweep.shardedRuns});
        w.kv("shard_max_shards",
             std::uint64_t{sweep.shardMaxShards});
        w.kv("shard_max_refs", sweep.shardMaxRefs);
        w.kv("shard_min_refs", sweep.shardMinRefs);
        w.kv("fused_runs", std::uint64_t{sweep.fusedRuns});
        w.kv("fused_configs", std::uint64_t{sweep.fusedConfigs});
        w.kv("sampled_runs", std::uint64_t{sweep.sampledRuns});
        w.kv("sample_unit_refs", sweep.sampleUnitRefs);
        w.kv("sample_interval_units", sweep.sampleIntervalUnits);
        w.kv("sample_warmup_refs", sweep.sampleWarmupRefs);
        w.kv("sample_units", sweep.sampleUnits);
        w.kv("sample_measured_refs", sweep.sampleMeasuredRefs);
        // Pre-scenario manifests stay byte-identical: the scenario
        // keys appear only for multicore sweeps.
        if (sweep.scenarioCores > 1) {
            w.kv("scenario_cores",
                 std::uint64_t{sweep.scenarioCores});
            w.kv("coh_bus_reads", sweep.cohBusReads);
            w.kv("coh_bus_rfo", sweep.cohBusReadForOwnership);
            w.kv("coh_bus_upgrades", sweep.cohBusUpgrades);
            w.kv("coh_invalidations", sweep.cohInvalidations);
            w.kv("coh_c2c_transfers",
                 sweep.cohCacheToCacheTransfers);
            w.kv("coh_c2c_words", sweep.cohC2cWords);
            w.kv("coh_snoop_wb_words", sweep.cohSnoopWritebackWords);
        }
        w.key("configs").beginArray();
        for (const ConfigRoute &route : sweep.routes) {
            w.beginObject();
            w.kv("name", route.config);
            w.kv("engine", route.engine);
            if (route.sampled) {
                w.kv("miss_ratio", route.missRatioMean);
                w.kv("miss_stderr", route.missRatioStdErr);
            }
            if (route.coherent) {
                w.kv("coh_inval_per_kiloref",
                     route.cohInvalPerKiloRef);
                w.kv("coh_traffic_ratio", route.cohTrafficRatio);
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    // Non-server runs keep their existing schema byte-for-byte: the
    // serves array appears only when something was served.
    if (!serves.empty()) {
        w.key("serves").beginArray();
        for (const ServeRecord &serve : serves) {
            w.beginObject();
            w.kv("label", serve.label);
            w.kv("op", serve.op);
            w.kv("traces", std::uint64_t{serve.numTraces});
            w.kv("configs", std::uint64_t{serve.numConfigs});
            w.kv("cells", std::uint64_t{serve.cells});
            w.kv("cache_hits", std::uint64_t{serve.cacheHits});
            w.kv("cache_misses", std::uint64_t{serve.cacheMisses});
            w.kv("priority", serve.priority);
            w.kv("wall_ms", serve.wallMs);
            w.endObject();
        }
        w.endArray();
    }

    w.key("stages").beginArray();
    for (const StageSnapshot &stage : stages) {
        w.beginObject();
        w.kv("name", stage.name);
        w.kv("calls", stage.calls);
        w.kv("wall_ms", stage.wallMs);
        w.endObject();
    }
    w.endArray();

    w.key("engines").beginArray();
    for (const EngineUsage &engine : engines) {
        w.beginObject();
        w.kv("name", engine.name);
        w.kv("refs", engine.refs);
        w.kv("bytes", engine.bytes);
        w.kv("wall_ms", engine.wallMs);
        w.kv("mrefs_per_sec", engine.mrefsPerSec);
        w.endObject();
    }
    w.endArray();

    w.key("counters").beginObject();
    for (const CounterSnapshot &counter : counters)
        w.kv(counter.name, counter.value);
    w.endObject();

    w.endObject();
    return w.str();
}

bool
writeManifest(const std::string &path)
{
    const std::string json = currentManifest().toJson() + "\n";
    if (!writeTextFile(path, json)) {
        warn("cannot write run manifest to %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace occsim::obs
