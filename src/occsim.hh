/**
 * @file
 * Umbrella header: the supported public surface of the occsim
 * library in one include.
 *
 *   #include "occsim.hh"
 *
 * pulls in cache configuration and simulation, trace generation and
 * filtering, the unified sweep API (SweepRequest -> runSweep ->
 * SweepReport), the paper harnesses, and the observability subsystem
 * (telemetry, run manifests). Internal headers — the engine
 * internals, the VM — are deliberately not included;
 * embedders that reach for them are off the supported surface.
 *
 * examples/quickstart.cpp builds against this header alone.
 */

#ifndef OCCSIM_OCCSIM_HH
#define OCCSIM_OCCSIM_HH

// Cache model: configuration, geometry, statistics, simulation.
#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "cache/cache_geometry.hh"
#include "cache/cache_stats.hh"
#include "cache/sector_cache.hh"
#include "cache/split_cache.hh"

// Traces: representation, generation, filtering, persistence, and
// the on-disk packed corpus.
#include "trace/corpus.hh"
#include "trace/filters.hh"
#include "trace/trace.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"

// Workloads: the paper's suites, trace builders, and the parallel
// (multicore) sharing-pattern generators.
#include "workload/parallel.hh"
#include "workload/profiles.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

// Sweeps: the unified request/report API — the one supported entry
// point; scenario routing included (multi/sweep_api.hh pulls in
// coherence/scenario.hh).
#include "multi/sweep_api.hh"
#include "multi/sweep_plan.hh"
#include "multi/sweep_runner.hh"

// Analysis helpers.
#include "multi/miss_classifier.hh"
#include "multi/stack_analyzer.hh"
#include "multi/working_set.hh"

// Paper harnesses (tables and figures).
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/paper_tables.hh"

// Observability: telemetry counters/spans and run manifests.
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/telemetry.hh"

// The sweep server: wire protocol, result cache, daemon.
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"

// Execution resources.
#include "util/thread_pool.hh"

#endif // OCCSIM_OCCSIM_HH
