/**
 * @file
 * Shared plumbing of the timing benchmarks: wall-clock measurement,
 * the nested result-set diff every bench gates on (sameSweepResult
 * per cell, with per-mismatch MISMATCH lines), and the finishing move
 * — emit the BENCH_JSON line (bench_json.hh) and turn the gate
 * verdict into the process exit status.
 */

#ifndef OCCSIM_BENCH_BENCH_REPORTER_HH
#define OCCSIM_BENCH_BENCH_REPORTER_HH

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "multi/sweep_api.hh"
#include "multi/sweep_runner.hh"
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
 * Suite sweep through the unified API; returns the per-trace result
 * grid (averaging skipped — benches diff and gate the raw grid).
 */
inline std::vector<std::vector<SweepResult>>
sweepGrid(const std::vector<std::shared_ptr<const VectorTrace>> &traces,
          const std::vector<CacheConfig> &configs,
          ThreadPool *pool = nullptr,
          SweepEngine engine = SweepEngine::Auto)
{
    SweepRequest request;
    request.traces = traces;
    request.configs = configs;
    request.pool = pool;
    request.engine = engine;
    request.wantAverage = false;
    return runSweep(request).perTrace;
}

/**
 * Diff two per-trace result sets, printing one MISMATCH line per
 * divergent (trace, config) cell. A shape difference (trace or
 * config count) is itself one mismatch.
 * @return total mismatches (0 = bit-identical).
 */
inline std::size_t
diffResultSets(const std::vector<std::vector<SweepResult>> &want,
               const std::vector<std::vector<SweepResult>> &got)
{
    if (want.size() != got.size()) {
        std::printf("MISMATCH: %zu vs %zu traces\n", want.size(),
                    got.size());
        return 1;
    }
    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < want.size(); ++t) {
        if (want[t].size() != got[t].size()) {
            std::printf("MISMATCH trace %zu: %zu vs %zu configs\n", t,
                        want[t].size(), got[t].size());
            ++mismatches;
            continue;
        }
        for (std::size_t c = 0; c < want[t].size(); ++c) {
            if (!sameSweepResult(want[t][c], got[t][c])) {
                ++mismatches;
                std::printf("MISMATCH trace %zu config %s\n", t,
                            want[t][c].config.fullName().c_str());
            }
        }
    }
    return mismatches;
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
