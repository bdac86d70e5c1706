/**
 * @file
 * The unified sweep API: one request/report pair in front of every
 * sweep engine.
 *
 *   SweepRequest request;
 *   request.traces = buildSuiteTraces(suite);
 *   request.configs = paperGrid(1024, 2);
 *   SweepReport report = runSweep(request);
 *   // report.perTrace, report.average, and report.manifest: this
 *   // sweep's own record (the session's is obs::currentManifest())
 *
 * Everything else is a field of the request: engine policy, explicit
 * pool, reference cap and a telemetry sink. Every result carries its
 * config's miss and traffic ratios and its residency pair (Table 6's
 * sector statistics). Exact single-cache sweeps are routed by the
 * sweep planner (multi/sweep_plan.hh), and the manifest records the
 * routes it chose. tests/test_sweep_api.cpp holds the cross-engine
 * exact-equality proof.
 *
 * Scenario-first: SweepRequest::scenario names the machine the grid
 * is priced on. The default (1 core) is today's single-cache model,
 * served by the single-cache engines bit-identically; a multicore
 * scenario routes every (trace, config) pair to the coherent MESI
 * engine (coherence/coherent_system.hh), and results additionally
 * carry SweepResult::coherency bus-traffic metrics.
 */

#ifndef OCCSIM_MULTI_SWEEP_API_HH
#define OCCSIM_MULTI_SWEEP_API_HH

#include <memory>
#include <string>
#include <vector>

#include "coherence/scenario.hh"
#include "multi/sweep_plan.hh"
#include "obs/manifest.hh"
#include "trace/packed_trace.hh"

namespace occsim {

/** @return the stable policy name of @p engine ("auto",
 *  "direct_only", "cross_check", "sampled"). */
const char *sweepEngineName(SweepEngine engine);

/**
 * Everything one sweep needs: inputs, engine policy, execution
 * resources, and observability routing. Value type — build it field
 * by field; only traces and configs are mandatory.
 */
struct SweepRequest
{
    /** Shared immutable traces (e.g. from buildSuiteTraces or
     *  buildTraceShared). Exactly one of traces / packedTraces must
     *  be non-empty; no null entries. */
    std::vector<std::shared_ptr<const VectorTrace>> traces;

    /**
     * Already packed traces — e.g. corpus files mapped read-only by
     * TraceCorpus::open(), replayed in place with no decode and no
     * copy. Packed records carry no MemRef stream, so this path is
     * served entirely by the span replay engines — fused, batch,
     * set-sharded and split pairs (whose results are bit-identical to
     * every other engine); it requires SweepEngine::Auto.
     */
    std::vector<std::shared_ptr<const PackedTrace>> packedTraces;

    /** Config grid; one result slot per entry per trace. */
    std::vector<CacheConfig> configs;

    /**
     * The machine the grid is priced on. The default (1 core) is the
     * single-cache model: requests that never touch this field behave
     * exactly as before the scenario redesign, served by the same
     * engines with bit-identical results. A multicore scenario
     * (cores >= 2) routes every (trace, config) pair to the coherent
     * MESI engine; it requires SweepEngine::Auto and configs inside
     * the MESI subset (copy-back + write-allocate + demand + unified
     * — see validateScenario).
     */
    ScenarioConfig scenario;

    /** Engine routing policy (see SweepEngine). */
    SweepEngine engine = SweepEngine::Auto;

    /** Pool to run on; nullptr means globalThreadPool(). */
    ThreadPool *pool = nullptr;

    /** Per-trace reference cap (0 = whole trace). */
    std::uint64_t maxRefs = 0;

    /** Sampling knobs (unit size, interval, warmup, seed); consulted
     *  only under SweepEngine::Sampled. */
    SampleSpec sample;

    /** Compute SweepReport::average (unweighted across traces, the
     *  paper's convention). */
    bool wantAverage = true;

    /** Label recorded in the manifest ("table6", "suite:PDP-11"). */
    std::string label;

    /**
     * Telemetry sink for the sweep-level span and counters. nullptr
     * routes to the global obs::telemetry() registry (subject to the
     * global enable flag); an explicit sink records unconditionally.
     * Engine-internal stage spans always go to the global registry.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** What one sweep produced. */
struct SweepReport
{
    /** perTrace[t][c]: traces[t] x configs[c], grid order. */
    std::vector<std::vector<SweepResult>> perTrace;

    /** Unweighted per-config average across traces (empty when
     *  SweepRequest::wantAverage is false). */
    std::vector<SweepResult> average;

    /** References consumed per config per trace (min(maxRefs,
     *  trace size), summed over traces). */
    std::uint64_t refs = 0;

    /** Manifest of this sweep alone: the build header, this sweep's
     *  trace identities and its one SweepRecord (engine routing per
     *  config, wall time). The session's manifest, every sweep and
     *  served request plus telemetry, is obs::currentManifest(). */
    obs::RunManifest manifest;
};

/**
 * The one gate on a sweep's shape, shared by runSweep and the sweep
 * server: traces (MemRef or packed, not both, no nulls), a non-empty
 * grid whose every config passes validateConfig, a valid scenario
 * (validateScenario), and an engine policy that fits the request.
 * @return "" when @p request can run, else the reason it cannot.
 */
std::string validateSweepRequest(const SweepRequest &request);

/**
 * Run @p request: every config over every trace, partitioned across
 * the pool, routed per SweepRequest::engine. The one supported sweep
 * entry point; bit-identical whichever engine serves a config. A
 * request validateSweepRequest rejects is a programmer error: it
 * panics.
 */
SweepReport runSweep(const SweepRequest &request);

} // namespace occsim

#endif // OCCSIM_MULTI_SWEEP_API_HH
