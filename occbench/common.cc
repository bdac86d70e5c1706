#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/telemetry.hh"
#include "util/thread_pool.hh"

namespace occbench {

using occsim::SweepResult;

namespace {

/** The engines that report engine.<name> spans and refs counters. */
const std::vector<std::string> kRouteEngines = {
    "single_pass", "fused", "batch", "shard", "direct", "coherent",
};

} // namespace

const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"workload.build_ns_per_ref", "ns"},
    {"trace.pack_ms", "ms"},
    {"trace.pack_calls", "count"},
    {"trace.shard_ms", "ms"},
    {"trace.corpus_map_refs_per_req", "count"},
    {"trace.corpus_open_ms", "ms"},
    {"trace.corpus_ingest_ms", "ms"},
    {"multi.single_pass.ns_per_cfgref", "ns"},
    {"multi.fused.ns_per_cfgref", "ns"},
    {"multi.batch.ns_per_cfgref", "ns"},
    {"multi.shard.ns_per_cfgref", "ns"},
    {"multi.route_share.single_pass", "frac"},
    {"multi.route_share.fused", "frac"},
    {"multi.route_share.batch", "frac"},
    {"multi.route_share.shard", "frac"},
    {"multi.route_share.direct", "frac"},
    {"multi.route_share.coherent", "frac"},
    {"multi.overhead_ms", "ms"},
    {"util.pool_busy_frac", "frac"},
    {"util.pool_tasks", "count"},
    {"coherence.ns_per_ref", "ns"},
    {"serve.hit_frac", "frac"},
    {"serve.first_frame_ms_p50", "ms"},
    {"serve.request_ms_p50", "ms"},
    {"serve.queue_high_water", "count"},
    {"serve.compute_ms_per_miss_cell", "ms"},
    {"obs.tracing_overhead", "ns"},
    {"obs.unaccounted_frac", "frac"},
};

bool
moreSetups(const RunOptions &options, std::size_t done,
           Clock::time_point start)
{
    if (options.traced)
        return done < 1;
    return done < 3 || (done < 15 && secondsSince(start) < 1.0);
}

unsigned
benchThreads()
{
    return std::min(4u, occsim::effectiveHardwareThreads());
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
millisSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
tail(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 21)
        return median(std::move(values));
    std::sort(values.begin(), values.end());
    // Nearest rank r (1-based) has n - r samples above it.
    const auto rank99 =
        static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
    return values[std::min(rank99, n - 10) - 1];
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

namespace {

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

void
digestInto(Fnv &fnv, const SweepResult &r)
{
    const occsim::CacheConfig &c = r.config;
    for (const std::uint64_t v :
         {std::uint64_t{c.netSize}, std::uint64_t{c.blockSize},
          std::uint64_t{c.subBlockSize}, std::uint64_t{c.assoc},
          std::uint64_t{c.wordSize}, std::uint64_t{c.addressBits},
          std::uint64_t(c.replacement), std::uint64_t(c.fetch),
          std::uint64_t(c.write), std::uint64_t{c.writeAllocate},
          std::uint64_t(c.partition), c.randomSeed, r.grossBytes})
        fnv.u64(v);
    for (const double v :
         {r.missRatio, r.warmMissRatio, r.trafficRatio,
          r.warmTrafficRatio, r.nibbleTrafficRatio,
          r.warmNibbleTrafficRatio})
        fnv.f64(v);
    fnv.u64(r.sampled.active);
    const occsim::CoherencySummary &coh = r.coherency;
    for (const std::uint64_t v :
         {std::uint64_t{coh.active}, std::uint64_t{coh.cores},
          coh.busReads, coh.busReadForOwnership, coh.busUpgrades,
          coh.invalidations, coh.cacheToCacheTransfers, coh.c2cWords,
          coh.snoopWritebackWords})
        fnv.u64(v);
    fnv.f64(coh.invalidationsPerKiloRef);
    fnv.f64(coh.coherenceTrafficRatio);
    for (const double v : coh.coreMissRatios)
        fnv.f64(v);
}

} // namespace

std::uint64_t
resultDigest(const SweepResult &result)
{
    Fnv fnv;
    digestInto(fnv, result);
    return fnv.h;
}

std::uint64_t
gridDigest(const std::vector<std::vector<SweepResult>> &grid)
{
    Fnv fnv;
    for (const auto &row : grid) {
        for (const SweepResult &result : row)
            digestInto(fnv, result);
    }
    return fnv.h;
}

void
printSimulatedSummary(const std::string &what,
                      const std::vector<std::vector<SweepResult>> &grid)
{
    double miss = 0.0;
    double traffic = 0.0;
    std::size_t cells = 0;
    for (const auto &row : grid) {
        for (const SweepResult &result : row) {
            miss += result.missRatio;
            traffic += result.trafficRatio;
            ++cells;
        }
    }
    const double n = cells > 0 ? static_cast<double>(cells) : 1.0;
    std::printf("digest %s %016llx cells %zu mean_miss_ratio %.17g "
                "mean_traffic_ratio %.17g\n",
                what.c_str(),
                static_cast<unsigned long long>(gridDigest(grid)), cells,
                miss / n, traffic / n);
}

double
LayerSnapshot::ms(const std::string &stage) const
{
    const auto it = stageMs.find(stage);
    return it == stageMs.end() ? 0.0 : it->second;
}

std::uint64_t
LayerSnapshot::calls(const std::string &stage) const
{
    const auto it = stageCalls.find(stage);
    return it == stageCalls.end() ? 0 : it->second;
}

std::uint64_t
LayerSnapshot::count(const std::string &counter) const
{
    const auto it = counters.find(counter);
    return it == counters.end() ? 0 : it->second;
}

LayerSnapshot
snapshotTelemetry()
{
    LayerSnapshot snap;
    for (const auto &stage : occsim::obs::telemetry().stages()) {
        snap.stageMs[stage.name] = stage.wallMs;
        snap.stageCalls[stage.name] = stage.calls;
    }
    for (const auto &counter : occsim::obs::telemetry().counters())
        snap.counters[counter.name] = counter.value;
    return snap;
}

std::uint64_t
addEngineLayers(Outcome &out, const LayerSnapshot &snap,
                std::size_t sweeps, unsigned threads)
{
    const double per_sweep =
        sweeps > 0 ? 1.0 / static_cast<double>(sweeps) : 0.0;
    std::uint64_t total_refs = 0;
    double engine_ms = 0.0;
    for (const std::string &engine : kRouteEngines) {
        total_refs += snap.count("engine." + engine + ".refs");
        engine_ms += snap.ms("engine." + engine);
    }
    const auto ns_per_ref = [&](const std::string &engine) {
        const std::uint64_t refs = snap.count("engine." + engine + ".refs");
        return refs > 0 ? snap.ms("engine." + engine) * 1e6 /
                              static_cast<double>(refs)
                        : 0.0;
    };
    for (const char *engine : {"single_pass", "fused", "batch", "shard"}) {
        out.add(std::string("multi.") + engine + ".ns_per_cfgref",
                ns_per_ref(engine), "ns", sweeps);
    }
    out.add("coherence.ns_per_ref", ns_per_ref("coherent"), "ns", sweeps);
    for (const std::string &engine : kRouteEngines) {
        const std::uint64_t refs = snap.count("engine." + engine + ".refs");
        out.add("multi.route_share." + engine,
                total_refs > 0 ? static_cast<double>(refs) /
                                     static_cast<double>(total_refs)
                               : 0.0,
                "frac", sweeps);
    }

    const double pool_ms = snap.ms("pool.parallel_for");
    const double pack_ms = snap.ms("trace.pack");
    const double shard_ms = snap.ms("trace.shard");
    out.add("trace.pack_ms", pack_ms * per_sweep, "ms", sweeps);
    out.add("trace.pack_calls",
            static_cast<double>(snap.calls("trace.pack")) * per_sweep,
            "count", sweeps);
    out.add("trace.shard_ms", shard_ms * per_sweep, "ms", sweeps);
    out.add("multi.overhead_ms",
            (snap.ms("sweep") - pool_ms - pack_ms - shard_ms) * per_sweep,
            "ms", sweeps);
    out.add("util.pool_busy_frac",
            pool_ms > 0.0 ? engine_ms / (pool_ms * threads) : 0.0, "frac",
            sweeps);
    out.add("util.pool_tasks",
            static_cast<double>(snap.count("pool.tasks")) * per_sweep,
            "count", sweeps);
    return total_refs;
}

} // namespace occbench
