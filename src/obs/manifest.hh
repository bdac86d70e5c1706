/**
 * @file
 * Run manifests: a structured, machine-readable record of what one
 * simulation run actually did — which traces at which lengths, which
 * configs routed to which engine, how many threads, how long each
 * stage took, what the binary and source tree were.
 *
 * Motivation: after the parallel, batched and fused engines, a
 * single sweep call fans out across engines and threads invisibly.
 * Trustworthy trace-driven results need a record of exactly what was
 * simulated and how (Bueno et al.), and a fast multi-config
 * simulator needs per-stage cost accounting to find the next hot
 * path (DEW). The manifest is that record, emitted as one JSON
 * document.
 *
 * Emission contract: when the OCCSIM_MANIFEST environment variable
 * names a path (or a CLI passes one to setManifestPath()), telemetry
 * is enabled and the process writes its manifest there at exit —
 * every bench and harness binary gets this for free through the
 * library hooks. SweepReport additionally carries the manifest of its
 * own sweep (header, traces, one sweep record), regardless of the
 * environment.
 */

#ifndef OCCSIM_OBS_MANIFEST_HH
#define OCCSIM_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

namespace occsim::obs {

/** Identity of one trace consumed by the run. */
struct TraceRecord
{
    std::string name;
    std::uint64_t refs = 0;
};

/** Engine routing decision for one config of a sweep. */
struct ConfigRoute
{
    std::string config;  ///< CacheConfig::shortName()
    std::string engine;  ///< "direct" / "fused" / "batch" /
                         ///< "shard" (sharded on at least one
                         ///< trace) / "sample" / "coherent"; a
                         ///< split I/D config names its halves'
                         ///< route
    /** Sampling engine only: the headline miss-ratio estimate
     *  (cross-trace mean with its standard error), so a sampled
     *  manifest carries the uncertainty of its numbers. Absent from
     *  the JSON for exact routes. */
    bool sampled = false;
    double missRatioMean = 0.0;
    double missRatioStdErr = 0.0;
    /** Coherent engine only: the per-config coherency-traffic
     *  columns (cross-trace averages, same arithmetic as
     *  SweepReport::average). Absent from the JSON for single-cache
     *  routes. */
    bool coherent = false;
    double cohInvalPerKiloRef = 0.0;
    double cohTrafficRatio = 0.0;
};

/** One sweep session (one runSweep call). */
struct SweepRecord
{
    std::string label;       ///< caller-supplied ("table6", ...)
    std::string engineMode;  ///< SweepEngine policy name
    unsigned threads = 1;
    std::size_t numTraces = 0;
    std::uint64_t maxRefs = 0;         ///< request cap (0 = all)
    std::uint64_t refsSimulated = 0;   ///< refs x configs actually run
    double wallMs = 0.0;
    std::size_t crossCheckSamples = 0;
    /** Set-sharded engine activity: (trace, config) runs sharded,
     *  the largest shard count used, and the fullest/emptiest shard
     *  sub-trace seen (the imbalance spread — hot sets show up as
     *  shardMaxRefs >> shardMinRefs). All zero when nothing sharded. */
    std::size_t shardedRuns = 0;
    std::uint32_t shardMaxShards = 0;
    std::uint64_t shardMaxRefs = 0;
    std::uint64_t shardMinRefs = 0;
    /** Fused group engine activity: (trace, group) passes run and
     *  configs that rode one. Zero when nothing fused. */
    std::size_t fusedRuns = 0;
    std::size_t fusedConfigs = 0;
    /** Sampling-engine activity (SweepEngine::Sampled only): (trace,
     *  config) runs sampled, the spec knobs, total measured units
     *  across traces, and total references priced inside units. All
     *  zero for exact sweeps. */
    std::size_t sampledRuns = 0;
    std::uint64_t sampleUnitRefs = 0;
    std::uint64_t sampleIntervalUnits = 0;
    std::uint64_t sampleWarmupRefs = 0;
    std::uint64_t sampleUnits = 0;
    std::uint64_t sampleMeasuredRefs = 0;
    /** Coherent-engine activity: the scenario's core count (1 = the
     *  single-cache model; the coh_* keys are then absent from the
     *  JSON, keeping pre-scenario manifests byte-identical) and the
     *  snooping-bus traffic totals summed over every (trace, config)
     *  run of the sweep. */
    std::uint32_t scenarioCores = 1;
    std::uint64_t cohBusReads = 0;
    std::uint64_t cohBusReadForOwnership = 0;
    std::uint64_t cohBusUpgrades = 0;
    std::uint64_t cohInvalidations = 0;
    std::uint64_t cohCacheToCacheTransfers = 0;
    std::uint64_t cohC2cWords = 0;
    std::uint64_t cohSnoopWritebackWords = 0;
    std::vector<ConfigRoute> routes;   ///< one per config, grid order
};

/**
 * One request handled by the sweep server (src/serve). Recorded per
 * request, so a server run's manifest is an audit trail: what was
 * asked, how much of it the result cache absorbed, and how long the
 * computed remainder took.
 */
struct ServeRecord
{
    std::string label;      ///< client-supplied request label
    std::string op;         ///< wire op ("sweep", ...)
    std::size_t numTraces = 0;
    std::size_t numConfigs = 0;
    std::size_t cells = 0;       ///< traces x configs result cells
    std::size_t cacheHits = 0;   ///< cells served from the cache
    std::size_t cacheMisses = 0; ///< cells computed by runSweep
    int priority = 0;
    double wallMs = 0.0;  ///< request wall time (queue + compute)
};

/** Record one served request into the process session (same
 *  newest-kept retention cap as sweeps, counted in
 *  "serves_dropped"). */
void recordServe(const ServeRecord &record);

/** Derived per-engine totals (from the engine.* telemetry). */
struct EngineUsage
{
    std::string name;
    std::uint64_t refs = 0;   ///< references simulated
    std::uint64_t bytes = 0;  ///< trace bytes streamed
    double wallMs = 0.0;      ///< summed across threads
    /** Millions of simulated references per wall-second (0 when the
     *  stage recorded no time). */
    double mrefsPerSec = 0.0;
};

/** The complete manifest of one run. */
struct RunManifest
{
    std::string schema = "occsim.run_manifest/1";
    std::string binary;
    std::string git;        ///< git describe at configure time
    std::string buildType;  ///< CMake build type
    std::string buildFlags; ///< compiler flags summary
    unsigned threads = 1;   ///< configuredThreadCount()
    std::vector<TraceRecord> traces;
    std::vector<SweepRecord> sweeps;
    /** Server request records; empty (and absent from the JSON) for
     *  non-server runs, so existing manifests are unchanged. */
    std::vector<ServeRecord> serves;
    std::vector<StageSnapshot> stages;
    std::vector<CounterSnapshot> counters;
    std::vector<EngineUsage> engines;

    /** Serialize as one JSON object (the manifest schema; see
     *  DESIGN.md §11 for the key-by-key description). */
    std::string toJson() const;
};

/**
 * Record a trace identity into the process session (deduplicated on
 * (name, refs)). Called by the trace builders and by runSweep.
 */
void recordTrace(const std::string &name, std::uint64_t refs);

/** Record one finished sweep into the process session. Retention is
 *  capped (kMaxRecordedSweeps) so unbounded loops of tiny sweeps —
 *  e.g. the differential fuzzer — cannot grow memory without bound.
 *  The newest records are kept: past the cap each new record drops
 *  the oldest, and a "sweeps_dropped" counter reports how many. */
void recordSweep(const SweepRecord &record);

/** Sweep- and serve-record retention cap (overflow drops the oldest
 *  records and is counted, not silent). */
constexpr std::size_t kMaxRecordedSweeps = 4096;

/**
 * Route manifest emission to @p path, enable telemetry, and register
 * the at-exit writer (once). The CLI spelling of OCCSIM_MANIFEST.
 */
void setManifestPath(const std::string &path);

/**
 * Read OCCSIM_MANIFEST once and arm emission if it names a path.
 * @return whether emission is active. Referenced from the telemetry
 * TU's static initialization, so ANY binary that links an
 * instrumented engine honors OCCSIM_MANIFEST without per-binary code.
 */
bool manifestEnvHook();

/** The active manifest path ("" when emission is off). */
std::string manifestPath();

/** Override the binary name recorded in manifests (defaults to the
 *  process name). */
void setManifestBinary(const std::string &name);

/** A manifest holding only the identity header: binary, git, build
 *  and configured threads. */
RunManifest manifestHeader();

/** Assemble the manifest of everything recorded so far: session
 *  traces and sweeps plus a snapshot of the global telemetry. */
RunManifest currentManifest();

/**
 * Serialize currentManifest() to @p path now.
 * @return success (failures warn but never abort a run).
 */
bool writeManifest(const std::string &path);

} // namespace occsim::obs

#endif // OCCSIM_OBS_MANIFEST_HH
