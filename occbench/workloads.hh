/**
 * @file
 * The four occbench workloads. Each builds its inputs from the seed,
 * times the public occsim entry points it drives, checks every result
 * it times, and returns its metrics: the end-to-end set untraced, or
 * the per-layer set when RunOptions::traced is set.
 */

#ifndef OCCBENCH_WORKLOADS_HH
#define OCCBENCH_WORKLOADS_HH

#include "common.hh"

namespace occbench {

/** PDP-11 suite (6 VM traces x 1M refs) x paperGrid(32..1024 B). */
Outcome runPaperGrid(const RunOptions &options);

/** One seeded 16M-ref synthetic trace x 9 batch/shard-routed configs. */
Outcome runLongTrace(const RunOptions &options);

/** The three seeded sharing workloads x a 4-core MESI config grid. */
Outcome runMesi4Core(const RunOptions &options);

/** An in-process SweepServer driven by 2 closed-loop socket clients. */
Outcome runServeMix(const RunOptions &options);

} // namespace occbench

#endif // OCCBENCH_WORKLOADS_HH
