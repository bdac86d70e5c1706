/**
 * @file
 * Shared plumbing of the timing benchmarks: wall-clock measurement
 * and the finishing move — emit the BENCH_JSON line (bench_json.hh)
 * and turn the gate verdict into the process exit status.
 */

#ifndef OCCSIM_BENCH_BENCH_REPORTER_HH
#define OCCSIM_BENCH_BENCH_REPORTER_HH

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.hh"
#include "util/thread_pool.hh"

namespace occsim::bench {

/** Milliseconds elapsed since @p start (steady clock). */
inline double
millisSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/**
 * Emit the bench's JSON line (stdout + BENCH_<name>.json) and
 * convert the gate verdict to the conventional exit status.
 *
 * Every bench's JSON gets a uniform metadata trailer appended here —
 * `hw_threads` (effectiveHardwareThreads(): the affinity mask, not
 * the host's nominal core count), `gate_enforced`, and `gate_pass` —
 * so tooling reading BENCH_*.json (occsim-report's bench table) never
 * has to special-case which bench recorded which field. Benches pass
 * their body WITHOUT those three keys.
 *
 * @param gate_enforced whether the bench's performance gate was
 *        armed on this run (false for reduced-length smoke runs or
 *        core-starved machines; correctness gates are always armed).
 * @param gate_pass the overall verdict — correctness AND any armed
 *        performance gates. This is the exit status: 0 when true.
 * @return 0 when @p gate_pass, 1 otherwise — `return
 *         finishBench(...)` is the last line of every bench's main().
 */
inline int
finishBench(const std::string &name, const std::string &json,
            bool gate_enforced, bool gate_pass)
{
    std::string line = json;
    if (!line.empty() && line.back() == '}') {
        char trailer[96];
        std::snprintf(trailer, sizeof trailer,
                      ",\"hw_threads\":%u,\"gate_enforced\":%s,"
                      "\"gate_pass\":%s}",
                      effectiveHardwareThreads(),
                      gate_enforced ? "true" : "false",
                      gate_pass ? "true" : "false");
        line.pop_back();
        line += trailer;
    }
    writeBenchJson(name, line);
    return gate_pass ? 0 : 1;
}

} // namespace occsim::bench

#endif // OCCSIM_BENCH_BENCH_REPORTER_HH
