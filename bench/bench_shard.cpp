/**
 * @file
 * Set-sharded intra-trace replay vs the batched engine on the
 * workload the shard engine exists for: ONE long trace on ONE config,
 * where every other engine is strictly serial. The batched engine
 * replays the packed trace through the single cache on one thread;
 * the shard engine runs one task per shard on an 8-worker pool, each
 * streaming the packed trace and replaying only its own sets' records
 * (no partitioned copy is built), then merges the per-shard counters.
 *
 * The bit-identity check is unconditional: the merged sharded
 * summary must equal the batched summary exactly (doubles compared
 * bitwise), and the process exits non-zero on any divergence — the
 * CI smoke run doubles as a determinism gate at reduced length.
 *
 * The >= 3x wall-clock gate is only meaningful with real cores to shard
 * across and a trace long enough that the per-shard filter scans and
 * the merge do not dominate, so it is enforced when the machine can
 * actually deliver >= 8 hardware threads to this process
 * (effectiveHardwareThreads(): the affinity mask, not the host's
 * nominal core count — a container pinned to one core must not be gated
 * on an 8-way speedup) AND the trace is >= 1M references; otherwise the
 * run prints an explicit "gate skipped" notice, the JSON records
 * gate_enforced=false (e.g. CI smoke at 20k refs, or core-starved
 * containers) and only determinism is gated.
 *
 * Prints a human-readable summary plus one machine-readable
 * "BENCH_JSON " line persisted to BENCH_shard.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_reporter.hh"
#include "cache/cache_config.hh"
#include "multi/tile_replay.hh"
#include "trace/packed_trace.hh"
#include "util/str.hh"
#include "util/thread_pool.hh"
#include "workload/suites.hh"

using namespace occsim;
using bench::millisSince;

namespace {

constexpr unsigned kThreads = 8;

} // namespace

int
main()
{
    const Suite suite = pdp11Suite();
    const std::uint64_t refs = defaultTraceLength();

    // A lone sector config (sub < block): shard-eligible and never
    // fused, so the batched engine is the honest baseline.
    // 16 KB / 32 B blocks / 4-way = 128 sets >= 8 shards.
    CacheConfig config =
        makeConfig(16384, 32, 8, suite.profile.wordSize);
    config.fetch = FetchPolicy::LoadForward;

    ThreadPool pool(kThreads);
    const std::uint32_t shards = planShardCount(config, pool.size());

    std::printf("set-sharded replay benchmark: 1 trace (%s) x 1 "
                "config (%s), %llu refs, %u shards on %u threads\n",
                suite.traces[0].name.c_str(),
                config.fullName().c_str(),
                static_cast<unsigned long long>(refs), shards,
                pool.size());

    // Trace construction and packing are untimed (shared by both
    // engines); each shard task's filter scan of the whole trace is
    // timed as part of the sharded run.
    const auto trace = buildTraceShared(suite.traces[0], refs);
    const auto packed = packedTraceShared(trace);

    // Baseline: the batched engine, single thread, single config.
    const auto batch_start = std::chrono::steady_clock::now();
    TileReplay batch({config}, 1);
    batch.run(packed->data(), packed->size());
    const SweepResult batch_result = batch.results()[0];
    const double batch_ms = millisSince(batch_start);

    // Sharded: concurrent filtered shard replay + merge.
    const auto shard_start = std::chrono::steady_clock::now();
    TileReplay engine({config}, shards);
    pool.parallelFor(shards, [&](std::size_t s) {
        engine.runShard(s, packed->data(), packed->size());
    });
    const SweepResult shard_result = engine.results()[0];
    const double shard_ms = millisSince(shard_start);

    const bool bit_identical =
        sameSweepResult(batch_result, shard_result);
    const double speedup =
        shard_ms > 0.0 ? batch_ms / shard_ms : 0.0;

    const auto [min_refs, max_refs] =
        std::minmax_element(engine.shardRefs().begin(),
                            engine.shardRefs().end());

    const unsigned hw = effectiveHardwareThreads();
    const bool gate_enforced = hw >= kThreads && refs >= 1000000;
    const bool gate_pass = !gate_enforced || speedup >= 3.0;

    std::printf("batched:  %.1f ms\nsharded:  %.1f ms\n"
                "speedup:  %.2fx (gate %s)\n"
                "shard refs: min %llu / max %llu\n"
                "bit-identical results: %s\n",
                batch_ms, shard_ms, speedup,
                gate_enforced
                    ? (gate_pass ? ">=3x pass" : ">=3x FAIL")
                    : "not enforced",
                static_cast<unsigned long long>(*min_refs),
                static_cast<unsigned long long>(*max_refs),
                bit_identical ? "yes" : "NO");
    if (!gate_enforced) {
        std::printf("gate skipped: %u effective hw thread%s, %llu "
                    "refs (needs >=%u threads and >=1M refs)\n",
                    hw, hw == 1 ? "" : "s",
                    static_cast<unsigned long long>(refs), kThreads);
    }

    return bench::finishBench(
        "shard",
        strfmt("{\"bench\":\"shard_replay\",\"trace\":\"%s\","
               "\"config\":\"%s\",\"refs\":%llu,\"shards\":%u,"
               "\"threads\":%u,"
               "\"batch_ms\":%.3f,\"shard_ms\":%.3f,"
               "\"speedup\":%.3f,\"min_shard_refs\":%llu,"
               "\"max_shard_refs\":%llu,\"bit_identical\":%s}",
               suite.traces[0].name.c_str(),
               config.fullName().c_str(),
               static_cast<unsigned long long>(refs), shards,
               pool.size(), batch_ms, shard_ms, speedup,
               static_cast<unsigned long long>(*min_refs),
               static_cast<unsigned long long>(*max_refs),
               bit_identical ? "true" : "false"),
        gate_enforced, bit_identical && gate_pass);
}
