/**
 * @file
 * Telemetry overhead benchmark: quantifies the cost of the obs layer
 * hooks (see src/obs/telemetry.hh and DESIGN.md §11) in its three
 * regimes on bench_batch's sector/load-forward grid:
 *
 *   plain     — the same simulation loop with no hooks at all. This
 *               is what an OCCSIM_NO_TELEMETRY build of the engines
 *               would execute, measured without needing a second
 *               library build.
 *   disabled  — hooks compiled in, telemetry disabled (the default
 *               state of every occsim binary). Each stage hook is one
 *               relaxed atomic load.
 *   enabled   — hooks compiled in and recording (the OCCSIM_MANIFEST
 *               state).
 *
 * Hooks are placed at the same granularity the engines use: one stage
 * span plus two counter bumps per simulated chunk, never per
 * reference. The chunk size here (4096 refs) is deliberately SMALLER
 * than the engines' real spans (a whole tile / level / trace pass),
 * so the measured relative overhead is an upper bound on what the
 * engines see.
 *
 * Gate (exercised by the bench-smoke ctest tier): compiled-in-but-
 * disabled overhead must stay under 2% of the plain loop, with an
 * absolute-delta noise floor so sub-millisecond jitter on short smoke
 * runs cannot fail CI. Non-zero exit on violation.
 *
 * The same TU is also built with OCCSIM_NO_TELEMETRY (target
 * bench_obs_notelem) to prove the macros really compile out: there
 * the instrumented loop IS the plain loop.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_reporter.hh"
#include "cache/cache.hh"
#include "harness/experiment.hh"
#include "obs/telemetry.hh"
#include "workload/suites.hh"

using namespace occsim;

namespace {

#if defined(OCCSIM_NO_TELEMETRY)
constexpr const char *kBenchName = "obs_notelem";
#else
constexpr const char *kBenchName = "obs";
#endif

/** Refs per instrumented span — finer than any real engine stage. */
constexpr std::size_t kChunk = 4096;

/** Timed repetitions per regime; best-of keeps scheduler noise out. */
constexpr int kReps = 3;

double
millisSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/** bench_batch's grid: every sub < block sector point at net 1024,
 *  demand and load-forward — the direct-simulation workload. */
std::vector<CacheConfig>
sectorLoadForwardGrid(std::uint32_t word_size)
{
    std::vector<CacheConfig> configs;
    for (const std::uint32_t block : {8u, 16u, 32u, 64u}) {
        for (std::uint32_t sub = std::max(2u, word_size); sub < block;
             sub *= 2) {
            for (const FetchPolicy fetch :
                 {FetchPolicy::Demand, FetchPolicy::LoadForward}) {
                CacheConfig config =
                    makeConfig(1024, block, sub, word_size);
                config.fetch = fetch;
                configs.push_back(config);
            }
        }
    }
    return configs;
}

/** The un-instrumented reference loop: one (trace, config) replay.
 *  Both replays stay out of line so each regime times one fixed copy
 *  of its loop rather than whatever the timing loop inlined. */
[[gnu::noinline]] void
replayPlain(const std::vector<MemRef> &refs, const CacheConfig &config)
{
    Cache cache(config);
    for (std::size_t base = 0; base < refs.size(); base += kChunk) {
        const std::size_t end = std::min(refs.size(), base + kChunk);
        for (std::size_t i = base; i < end; ++i)
            cache.access(refs[i]);
    }
}

/** Identical loop with the engines' hook pattern per chunk. Under
 *  OCCSIM_NO_TELEMETRY the macros vanish and this compiles to
 *  replayPlain. */
[[gnu::noinline]] void
replayInstrumented(const std::vector<MemRef> &refs,
                   const CacheConfig &config)
{
    Cache cache(config);
    for (std::size_t base = 0; base < refs.size(); base += kChunk) {
        const std::size_t end = std::min(refs.size(), base + kChunk);
        OCCSIM_TELEM_STAGE("bench.chunk");
        for (std::size_t i = base; i < end; ++i)
            cache.access(refs[i]);
        OCCSIM_TELEM_COUNT("bench.chunk.refs", end - base);
        OCCSIM_TELEM_COUNT("bench.chunk.bytes",
                           (end - base) * sizeof(MemRef));
    }
}

template <typename Fn>
double
timeOnce(Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return millisSince(start);
}

void
keepMin(double &best, double ms, int rep)
{
    if (rep == 0 || ms < best)
        best = ms;
}

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const auto configs = sectorLoadForwardGrid(suite.profile.wordSize);
    const auto traces = buildSuiteTraces(suite);

    std::uint64_t accesses = 0;
    for (const auto &trace : traces)
        accesses += trace->size() * configs.size();
    std::printf("telemetry overhead benchmark (%s): %zu traces x "
                "%zu configs, %llu cache accesses per pass, "
                "%zu-ref spans, best of %d per replay\n",
                kBenchName, traces.size(), configs.size(),
                static_cast<unsigned long long>(accesses),
                kChunk, kReps);

    // Warm-up pass so page faults and first-touch allocation are not
    // charged to whichever regime runs first.
    for (const auto &trace : traces)
        for (const CacheConfig &config : configs)
            replayPlain(trace->refs(), config);

    obs::Telemetry &telem = obs::telemetry();
    const bool was_enabled = telem.enabled();

    // The regimes are interleaved per (trace, config) replay, not per
    // whole-grid pass: each replay runs kReps times in every regime,
    // back to back, with the regime that goes first rotated each
    // repetition, and a regime's time is the sum over replays of its
    // per-replay minimum. A slow period on the host (a busy sibling
    // vCPU, preemption, a CPU-quota throttle window) lasts far longer
    // than one replay, so it inflates all three regimes of the replays
    // it covers alike instead of one regime's whole pass. Timing whole
    // passes in a fixed plain-disabled-enabled order charged a host
    // that turned slow partway through to the later regimes, which
    // read as tens of percent of "overhead" even in the notelem build,
    // where the two loops are the same code.
    enum Regime { kPlain, kDisabled, kEnabled, kRegimes };
    double regime_ms[kRegimes] = {};
    for (const auto &trace : traces) {
        const std::vector<MemRef> &refs = trace->refs();
        for (const CacheConfig &config : configs) {
            double best[kRegimes] = {};
            for (int rep = 0; rep < kReps; ++rep) {
                for (int k = 0; k < kRegimes; ++k) {
                    const int regime = (rep + k) % kRegimes;
                    telem.setEnabled(regime == kEnabled);
                    const double ms = timeOnce([&] {
                        if (regime == kPlain)
                            replayPlain(refs, config);
                        else
                            replayInstrumented(refs, config);
                    });
                    keepMin(best[regime], ms, rep);
                }
            }
            for (int regime = 0; regime < kRegimes; ++regime)
                regime_ms[regime] += best[regime];
        }
    }
    telem.setEnabled(was_enabled);
    const double plain_ms = regime_ms[kPlain];
    const double disabled_ms = regime_ms[kDisabled];
    const double enabled_ms = regime_ms[kEnabled];

    const double disabled_pct =
        plain_ms > 0.0 ? (disabled_ms - plain_ms) / plain_ms * 100.0
                       : 0.0;
    const double enabled_pct =
        plain_ms > 0.0 ? (enabled_ms - plain_ms) / plain_ms * 100.0
                       : 0.0;

    // Gate: disabled hooks under 2%, OR an absolute delta inside the
    // noise floor (short smoke runs finish in tens of ms, where a
    // single scheduler hiccup exceeds any realistic percentage).
    const double kGatePct = 2.0;
    const double kNoiseFloorMs = 5.0;
    const bool gate_ok = disabled_pct < kGatePct ||
                         (disabled_ms - plain_ms) < kNoiseFloorMs;

    std::printf("plain (no hooks):        %8.2f ms\n"
                "compiled-in, disabled:   %8.2f ms  (%+.2f%%)\n"
                "compiled-in, enabled:    %8.2f ms  (%+.2f%%)\n"
                "disabled-overhead gate (<%.0f%% or <%.0f ms): %s\n",
                plain_ms, disabled_ms, disabled_pct, enabled_ms,
                enabled_pct, kGatePct, kNoiseFloorMs,
                gate_ok ? "PASS" : "FAIL");

    obs::JsonWriter json;
    json.beginObject()
        .kv("bench", kBenchName)
        .kv("suite", suite.profile.name)
        .kv("traces", std::uint64_t{traces.size()})
        .kv("configs", std::uint64_t{configs.size()})
        .kv("accesses_per_pass", accesses)
        .kv("chunk_refs", std::uint64_t{kChunk})
        .kv("plain_ms", plain_ms)
        .kv("disabled_ms", disabled_ms)
        .kv("enabled_ms", enabled_ms)
        .kv("disabled_overhead_pct", disabled_pct)
        .kv("enabled_overhead_pct", enabled_pct)
        .endObject();
    return bench::finishBench(kBenchName, json.str(),
                              /*gate_enforced=*/true, gate_ok);
}
