/**
 * @file
 * The serve_mix workload: an in-process SweepServer over a fresh
 * corpus of the six PDP-11 traces, driven over a Unix socket by two
 * closed-loop clients. Each client sends its next request only after
 * the "done" frame of the last one. A seeded stream picks, per
 * request, a repeat of one of the warmed shapes (every cell a cache
 * hit) or, one time in ten, a warmed shape plus one never-seen config
 * (its cells are misses the server computes on the packed path).
 *
 * The benchmark holds no PackedTrace between requests, so each
 * request pays whatever corpus mapping a real client pays.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "multi/sweep_api.hh"
#include "obs/manifest.hh"
#include "obs/telemetry.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/thread_pool.hh"
#include "workload/suites.hh"
#include "workloads.hh"

namespace occbench {

using namespace occsim;
using namespace occsim::serve;

namespace {

constexpr std::uint64_t kTraceRefs = 1000000;
constexpr std::size_t kClients = 2;
constexpr std::size_t kShapes = 12;
/** One request in kMissEvery carries a fresh config. */
constexpr std::uint64_t kMissEvery = 10;
constexpr std::uint32_t kWord = 2;  ///< PDP-11 word size

using TraceSet = std::vector<std::shared_ptr<const VectorTrace>>;

/** The server, its corpus directory and socket; removed on scope
 *  exit. Paths are relative to the working directory (the checkout),
 *  which keeps the socket path short. */
class ServeSite
{
  public:
    ServeSite(const std::string &dir, ThreadPool &pool)
        : dir_(dir)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        ServeOptions options;
        options.corpusDir = dir_ + "/corpus";
        options.pool = &pool;
        // Room for every warm and fresh cell of a run, so no planned
        // hit is ever evicted.
        options.cacheCapacity = 1u << 16;
        server_ = std::make_unique<SweepServer>(options);
    }

    ~ServeSite()
    {
        server_.reset();
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }

    ServeSite(const ServeSite &) = delete;
    ServeSite &operator=(const ServeSite &) = delete;

    SweepServer &server() { return *server_; }
    std::string socketPath() const { return dir_ + "/sock"; }

  private:
    std::string dir_;
    std::unique_ptr<SweepServer> server_;
};

/** One warmed request shape and the direct results of its cells. */
struct Shape
{
    std::vector<std::size_t> traces;  ///< indices into the six traces
    std::vector<CacheConfig> configs;
};

/** Fresh-config supply: ten route classes (replacement x fetch x
 *  write policy), each a seeded shuffle of cache geometries, drawn
 *  round-robin so the class of the k-th fresh config, and with it its
 *  engine route, does not depend on the seed. */
class FreshConfigs
{
  public:
    FreshConfigs(std::uint64_t seed, const std::vector<CacheConfig> &warm)
    {
        struct Class
        {
            ReplacementPolicy replacement;
            FetchPolicy fetch;
        };
        const Class classes[] = {
            {ReplacementPolicy::LRU, FetchPolicy::Demand},
            {ReplacementPolicy::FIFO, FetchPolicy::Demand},
            {ReplacementPolicy::Random, FetchPolicy::Demand},
            {ReplacementPolicy::LRU, FetchPolicy::LoadForward},
            {ReplacementPolicy::LRU, FetchPolicy::PrefetchNextOnMiss},
        };
        std::mt19937_64 rng(seed ^ 0x667265736863ull);
        for (const bool copy_back : {true, false}) {
            for (const Class &cls : classes) {
                std::vector<CacheConfig> bucket;
                for (std::uint32_t net = 1024; net <= 16384; net *= 2) {
                    for (std::uint32_t block = 8; block <= 64; block *= 2) {
                        for (std::uint32_t sub = block / 4; sub <= block;
                             sub *= 2) {
                            for (const std::uint32_t assoc : {1u, 2u, 4u}) {
                                CacheConfig c =
                                    makeConfig(net, block, sub, kWord);
                                c.assoc = assoc;
                                c.replacement = cls.replacement;
                                c.fetch = cls.fetch;
                                c.write = copy_back
                                              ? WritePolicy::CopyBack
                                              : WritePolicy::WriteThrough;
                                c.writeAllocate = copy_back;
                                if (validateServeConfig(c).empty() &&
                                    std::find(warm.begin(), warm.end(),
                                              c) == warm.end())
                                    bucket.push_back(c);
                            }
                        }
                    }
                }
                for (std::size_t i = bucket.size(); i > 1; --i)
                    std::swap(bucket[i - 1], bucket[rng() % i]);
                buckets_.push_back(std::move(bucket));
            }
        }
    }

    /** The @p k-th fresh config, or false once the supply runs out. */
    bool get(std::size_t k, CacheConfig &config) const
    {
        const auto &bucket = buckets_[k % buckets_.size()];
        const std::size_t pos = k / buckets_.size();
        if (pos >= bucket.size())
            return false;
        config = bucket[pos];
        return true;
    }

  private:
    std::vector<std::vector<CacheConfig>> buckets_;
};

/** One served fresh cell, checked against direct runSweep of the
 *  requested config after its phase. */
struct FreshCell
{
    std::size_t trace = 0;  ///< index into the six traces
    CacheConfig config;     ///< as requested
    SweepResult served;
};

/** What one closed-loop phase of the clients measured. */
struct PhaseStats
{
    std::vector<double> hitMs;         ///< all-hit request latency
    std::vector<double> missMs;        ///< requests with >= 1 miss
    std::vector<double> missNsPerRef;  ///< miss latency per config-ref
    std::vector<double> firstFrameMs;  ///< all-hit: send to first frame
    double wallS = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t plannedHitCells = 0;
    std::uint64_t plannedMissCells = 0;
    std::size_t freshDrawn = 0;  ///< most fresh configs one client took
    double latencySumMs = 0.0;
    std::vector<FreshCell> fresh;

    void merge(PhaseStats &&other)
    {
        const auto append = [](auto &to, auto &from) {
            to.insert(to.end(), std::make_move_iterator(from.begin()),
                      std::make_move_iterator(from.end()));
        };
        append(hitMs, other.hitMs);
        append(missMs, other.missMs);
        append(missNsPerRef, other.missNsPerRef);
        append(firstFrameMs, other.firstFrameMs);
        append(fresh, other.fresh);
        requests += other.requests;
        failed += other.failed;
        plannedHitCells += other.plannedHitCells;
        plannedMissCells += other.plannedMissCells;
        latencySumMs += other.latencySumMs;
        freshDrawn = std::max(freshDrawn, other.freshDrawn);
    }
};

/** Closes a socket fd on scope exit. */
struct FdGuard
{
    int fd;
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * Everything the clients share: the six traces (for the request
 * payloads' hashes), the shapes with their expected results, and the
 * fresh-config supply.
 */
struct ServeMix
{
    std::vector<std::string> hashes;
    std::vector<Shape> shapes;
    /** expected[s][t][c]: direct runSweep of shape s's cell. */
    std::vector<std::vector<std::vector<SweepResult>>> expected;
    FreshConfigs *fresh = nullptr;
    /** First fresh-config index of the next phase: client c draws
     *  freshBase + c, + kClients, ... so no cell is ever repeated. */
    std::size_t freshBase = 0;
    std::string socketPath;
    std::uint64_t seed = 1;

    WireRequest request(const Shape &shape, const std::string &label) const
    {
        WireRequest req;
        req.op = "sweep";
        for (const std::size_t t : shape.traces)
            req.traces.push_back(hashes[t]);
        req.configs = shape.configs;
        req.label = label;
        return req;
    }

    /**
     * Send @p req and read its response stream; the latency stops at
     * the done frame and the frames are checked afterwards. Cells of
     * config index < @p shape_configs must equal shape @p shape's
     * expected results; the rest are fresh and go to @p stats.fresh.
     * The done frame must report exactly @p planned_hits cache hits.
     * @return false when the request failed or any check did.
     */
    bool roundTrip(int fd, const WireRequest &req, std::size_t shape,
                   std::size_t shape_configs, std::uint64_t planned_hits,
                   PhaseStats &stats, double &latency_ms,
                   double &first_ms) const
    {
        std::vector<std::string> frames;
        const auto start = Clock::now();
        if (!writeFrame(fd, wireRequestJson(req)))
            return false;
        bool done = false;
        first_ms = 0.0;
        while (!done) {
            std::string payload;
            if (readFrame(fd, payload) != FrameStatus::Ok)
                return false;
            if (frames.empty())
                first_ms = millisSince(start);
            done = payload.rfind("{\"type\":\"done\"", 0) == 0 ||
                   payload.rfind("{\"type\":\"error\"", 0) == 0;
            frames.push_back(std::move(payload));
        }
        latency_ms = millisSince(start);

        const std::size_t nt = req.traces.size();
        const std::size_t nc = req.configs.size();
        std::vector<char> seen(nt * nc, 0);
        for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
            obs::JsonValue value;
            SweepResult got;
            if (!obs::parseJson(frames[i], value))
                return false;
            const obs::JsonValue *ti = value.find("trace_index");
            const obs::JsonValue *ci = value.find("config_index");
            const obs::JsonValue *result = value.find("result");
            if (ti == nullptr || ci == nullptr || result == nullptr ||
                !parseResultJson(*result, got))
                return false;
            const std::size_t t = ti->asU64();
            const std::size_t c = ci->asU64();
            if (t >= nt || c >= nc || seen[t * nc + c])
                return false;
            seen[t * nc + c] = 1;
            if (c < shape_configs) {
                if (resultDigest(got) !=
                    resultDigest(expected[shape][t][c]))
                    return false;
            } else {
                stats.fresh.push_back(FreshCell{shapes[shape].traces[t],
                                                req.configs[c],
                                                std::move(got)});
            }
        }
        obs::JsonValue done_frame;
        if (!obs::parseJson(frames.back(), done_frame))
            return false;
        const obs::JsonValue *hits = done_frame.find("cache_hits");
        // Every planned hit must be served from the cache: a miss
        // there means the server recomputed a cell it held.
        return std::count(seen.begin(), seen.end(), 1) ==
                   static_cast<std::ptrdiff_t>(nt * nc) &&
               hits != nullptr && hits->asU64() == planned_hits;
    }

    /** One client's closed loop until @p deadline. */
    PhaseStats clientLoop(std::size_t client, std::size_t phase,
                          Clock::time_point deadline,
                          const std::string &label) const
    {
        PhaseStats stats;
        FdGuard fd{connectUnix(socketPath)};
        if (fd.fd < 0) {
            ++stats.requests;
            ++stats.failed;
            return stats;
        }
        std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + client * 31 +
                            phase);
        std::size_t fresh_index = freshBase + client;
        while (Clock::now() < deadline) {
            const std::size_t s = rng() % shapes.size();
            const bool miss = rng() % kMissEvery == 0;
            WireRequest req = request(shapes[s], label);
            if (miss) {
                CacheConfig config;
                if (!fresh->get(fresh_index, config))
                    break;
                fresh_index += kClients;
                ++stats.freshDrawn;
                req.configs.push_back(config);
            }
            const std::size_t hit_configs = shapes[s].configs.size();
            const std::size_t nt = req.traces.size();
            double latency = 0.0;
            double first = 0.0;
            ++stats.requests;
            if (!roundTrip(fd.fd, req, s, hit_configs, nt * hit_configs,
                           stats, latency, first)) {
                // The stream may be out of frame sync: stop this client.
                std::printf("MISMATCH serve_mix: request failed or "
                            "differs from direct runSweep\n");
                ++stats.failed;
                break;
            }
            stats.plannedHitCells += nt * hit_configs;
            stats.latencySumMs += latency;
            if (miss) {
                stats.plannedMissCells += nt;
                stats.missMs.push_back(latency);
                stats.missNsPerRef.push_back(
                    latency * 1e6 / static_cast<double>(nt * kTraceRefs));
            } else {
                stats.hitMs.push_back(latency);
                stats.firstFrameMs.push_back(first);
            }
        }
        return stats;
    }

    /** Run every client for @p seconds; merge their measurements. */
    PhaseStats phase(std::size_t index, double seconds,
                     const std::string &label)
    {
        std::vector<PhaseStats> per_client(kClients);
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        {
            std::vector<std::thread> clients;
            for (std::size_t c = 0; c < kClients; ++c) {
                clients.emplace_back([&, c] {
                    per_client[c] = clientLoop(c, index, deadline, label);
                });
            }
            for (std::thread &client : clients)
                client.join();
        }
        PhaseStats merged;
        merged.wallS = secondsSince(start);
        for (PhaseStats &stats : per_client)
            merged.merge(std::move(stats));
        freshBase += kClients * merged.freshDrawn;
        return merged;
    }
};

/** Recompute every fresh cell of @p stats under
 *  SweepEngine::DirectOnly, one runSweep per trace, and compare.
 *  @return mismatching cells. */
std::size_t
checkFresh(const PhaseStats &stats, const TraceSet &traces,
           ThreadPool &pool)
{
    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        std::vector<const SweepResult *> served;
        SweepRequest direct;
        direct.traces = {traces[t]};
        direct.engine = SweepEngine::DirectOnly;
        direct.pool = &pool;
        direct.wantAverage = false;
        direct.label = "serve_mix:fresh-check";
        for (const FreshCell &cell : stats.fresh) {
            if (cell.trace == t) {
                served.push_back(&cell.served);
                direct.configs.push_back(cell.config);
            }
        }
        if (served.empty())
            continue;
        const SweepReport report = runSweep(direct);
        for (std::size_t k = 0; k < served.size(); ++k) {
            if (resultDigest(report.perTrace[0][k]) !=
                resultDigest(*served[k]))
                ++mismatches;
        }
    }
    return mismatches;
}

} // namespace

Outcome
runServeMix(const RunOptions &options)
{
    Outcome out;
    const unsigned threads = benchThreads();
    ThreadPool pool(threads);
    std::printf("workload serve_mix seed %llu threads %u hw_threads %u "
                "clients %zu (closed loop)\n",
                static_cast<unsigned long long>(options.seed), threads,
                effectiveHardwareThreads(), kClients);

    // Set-up: trace generation, corpus ingest into a fresh directory,
    // server start; repeated so setup_s is a median.
    const Suite suite = pdp11Suite();
    const std::string dir =
        ".bench_build/serve-" + std::to_string(::getpid());
    TraceSet traces;
    std::unique_ptr<ServeSite> site;
    std::vector<std::string> hashes;
    std::vector<double> setup_s;
    std::vector<double> build_s;
    double ingest_ms = 0.0;
    const auto setup_start = Clock::now();
    while (moreSetups(options, setup_s.size(), setup_start)) {
        site.reset();
        traces.assign(suite.traces.size(), nullptr);
        hashes.assign(suite.traces.size(), "");
        const auto start = Clock::now();
        clearTraceCache();
        pool.parallelFor(traces.size(), [&](std::size_t t) {
            traces[t] = buildTraceShared(suite.traces[t], kTraceRefs);
        });
        build_s.push_back(secondsSince(start));
        site = std::make_unique<ServeSite>(dir, pool);
        const auto ingest_start = Clock::now();
        for (std::size_t t = 0; t < traces.size(); ++t)
            hashes[t] = site->server().corpus().ingest(*traces[t]);
        ingest_ms = millisSince(ingest_start);
        std::string error;
        if (!site->server().startUnix(site->socketPath(), &error)) {
            std::printf("serve_mix: %s\n", error.c_str());
            ++out.attempted;
            ++out.failed;
            return out;
        }
        setup_s.push_back(secondsSince(start));
    }
    for (const std::string &hash : hashes) {
        if (hash.empty()) {
            std::printf("serve_mix: corpus ingest failed\n");
            ++out.attempted;
            ++out.failed;
            return out;
        }
    }

    // Shapes: shape s names 1 or 2 traces and a seeded set of 4-way
    // LRU configs; at most 14 cells, 16 with a fresh config.
    std::mt19937_64 rng(options.seed ^ 0x7368617065ull);
    std::vector<CacheConfig> warm_pool;
    for (std::uint32_t net = 1024; net <= 16384; net *= 2) {
        for (std::uint32_t block = 8; block <= 64; block *= 2) {
            for (std::uint32_t sub = block / 4; sub <= block; sub *= 2)
                warm_pool.push_back(makeConfig(net, block, sub, kWord));
        }
    }
    ServeMix mix;
    mix.hashes = hashes;
    mix.seed = options.seed;
    mix.socketPath = site->socketPath();
    for (std::size_t s = 0; s < kShapes; ++s) {
        Shape shape;
        const std::size_t nt = 1 + s % 2;
        const std::size_t nc = (nt == 1 ? 4 : 2) + (s / 2) % 6;
        while (shape.traces.size() < nt) {
            const std::size_t t = rng() % traces.size();
            if (std::find(shape.traces.begin(), shape.traces.end(), t) ==
                shape.traces.end())
                shape.traces.push_back(t);
        }
        while (shape.configs.size() < nc) {
            const CacheConfig &c = warm_pool[rng() % warm_pool.size()];
            if (std::find(shape.configs.begin(), shape.configs.end(), c) ==
                shape.configs.end())
                shape.configs.push_back(c);
        }
        mix.shapes.push_back(std::move(shape));
    }
    FreshConfigs fresh(options.seed, warm_pool);
    mix.fresh = &fresh;

    // Expected results: every shape's cells under DirectOnly, one
    // plain Cache per cell, independent of the engines that serve them.
    std::uint64_t warm_cells = 0;
    for (const Shape &shape : mix.shapes) {
        SweepRequest direct;
        for (const std::size_t t : shape.traces)
            direct.traces.push_back(traces[t]);
        direct.configs = shape.configs;
        direct.engine = SweepEngine::DirectOnly;
        direct.pool = &pool;
        direct.wantAverage = false;
        direct.label = "serve_mix:expected";
        mix.expected.push_back(runSweep(direct).perTrace);
        warm_cells += shape.traces.size() * shape.configs.size();
    }
    {
        std::vector<std::vector<SweepResult>> all;
        for (const auto &grid : mix.expected)
            all.insert(all.end(), grid.begin(), grid.end());
        printSimulatedSummary("serve_mix", all);
    }
    std::printf("cells %llu warm cells in %zu shapes over %zu traces x "
                "%llu refs; 1 request in %llu adds a fresh config\n",
                static_cast<unsigned long long>(warm_cells), kShapes,
                traces.size(), static_cast<unsigned long long>(kTraceRefs),
                static_cast<unsigned long long>(kMissEvery));

    // Warm phase, untimed: every shape once, filling the result
    // cache; its frames are checked like every later one. A cell an
    // earlier shape already warmed is a planned hit.
    {
        FdGuard fd{connectUnix(mix.socketPath)};
        PhaseStats warm;
        std::set<std::pair<std::size_t, std::string>> warmed;
        for (std::size_t s = 0; s < mix.shapes.size(); ++s) {
            ++out.attempted;
            std::uint64_t planned_hits = 0;
            for (const std::size_t t : mix.shapes[s].traces) {
                for (const CacheConfig &c : mix.shapes[s].configs)
                    planned_hits +=
                        !warmed.emplace(t, canonicalConfigJson(c)).second;
            }
            double latency = 0.0;
            double first = 0.0;
            if (fd.fd < 0 ||
                !mix.roundTrip(fd.fd,
                               mix.request(mix.shapes[s], "occbench:warm"),
                               s, mix.shapes[s].configs.size(),
                               planned_hits, warm, latency, first)) {
                std::printf("MISMATCH serve_mix: warm request failed\n");
                ++out.failed;
            }
        }
    }

    auto finish = [&](PhaseStats &stats) {
        out.attempted += stats.requests;
        out.failed += stats.failed;
        const std::size_t bad = checkFresh(stats, traces, pool);
        out.attempted += stats.fresh.size();
        out.failed += bad;
        if (bad > 0)
            std::printf("MISMATCH serve_mix: %zu fresh cells differ from "
                        "direct runSweep\n",
                        bad);
    };
    const auto print_phase = [](const char *what, const PhaseStats &s) {
        std::printf("%s: %llu requests in %.3f s; hit p50 %.4f ms p99 "
                    "%.4f ms (n=%zu); miss p50 %.4f ms (n=%zu); planned "
                    "cells %llu hit + %llu miss\n",
                    what, static_cast<unsigned long long>(s.requests),
                    s.wallS, median(s.hitMs), percentile(s.hitMs, 99.0),
                    s.hitMs.size(), median(s.missMs), s.missMs.size(),
                    static_cast<unsigned long long>(s.plannedHitCells),
                    static_cast<unsigned long long>(s.plannedMissCells));
    };

    if (!options.traced) {
        PhaseStats stats = mix.phase(1, options.seconds, "occbench:timed");
        print_phase("timed", stats);
        out.add("setup_s", median(setup_s), "s", setup_s.size());
        out.add("cfgref_ns", median(stats.missNsPerRef), "ns",
                stats.missNsPerRef.size());
        out.add("lat_ms_p50", median(stats.hitMs), "ms",
                stats.hitMs.size());
        out.add("lat_ms_tail", tail(stats.hitMs), "ms", stats.hitMs.size());
        out.add("ops_per_s",
                static_cast<double>(stats.requests) / stats.wallS, "1/s",
                stats.requests);
        finish(stats);
    } else {
        PhaseStats untraced =
            mix.phase(1, options.seconds / 2, "occbench:untraced");
        print_phase("untraced", untraced);
        obs::telemetry().reset();
        obs::setTelemetryEnabled(true);
        PhaseStats traced =
            mix.phase(2, options.seconds / 2, "occbench:traced");
        obs::setTelemetryEnabled(false);
        print_phase("traced", traced);
        const LayerSnapshot snap = snapshotTelemetry();

        const std::size_t sweeps = snap.calls("sweep");
        addEngineLayers(out, snap, sweeps, threads);
        const std::uint64_t hits = snap.count("serve.cache_hit");
        const std::uint64_t misses = snap.count("serve.cache_miss");
        const double hit_frac =
            hits + misses > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0;
        const std::uint64_t planned =
            traced.plannedHitCells + traced.plannedMissCells;
        std::printf("serve.hit_frac %.6f (%llu/%llu cells); planned "
                    "%llu/%llu: %s\n",
                    hit_frac, static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(hits + misses),
                    static_cast<unsigned long long>(traced.plannedHitCells),
                    static_cast<unsigned long long>(planned),
                    hits == traced.plannedHitCells &&
                            misses == traced.plannedMissCells
                        ? "exact"
                        : "MISMATCH");
        if (hits != traced.plannedHitCells ||
            misses != traced.plannedMissCells)
            ++out.failed;

        // Per-request server wall time from the manifest's serve
        // records of the traced phase (all-hit requests only).
        std::vector<double> server_hit_ms;
        for (const obs::ServeRecord &record : obs::currentManifest().serves) {
            if (record.label == "occbench:traced" && record.cacheMisses == 0)
                server_hit_ms.push_back(record.wallMs);
        }
        const std::uint64_t requests = snap.count("serve.requests");
        const double span_ms = snap.ms("serve.request");

        // Corpus open, timed here with no mapping alive: what each
        // request pays to re-map and re-validate one trace.
        std::vector<double> open_ms;
        for (const std::string &hash : hashes) {
            const auto start = Clock::now();
            const bool opened =
                site->server().corpus().open(hash) != nullptr;
            open_ms.push_back(millisSince(start));
            ++out.attempted;
            out.failed += opened ? 0 : 1;
        }

        out.add("workload.build_ns_per_ref",
                median(build_s) * 1e9 /
                    static_cast<double>(traces.size() * kTraceRefs),
                "ns", build_s.size());
        out.add("trace.corpus_map_refs_per_req",
                requests > 0 ? static_cast<double>(
                                   snap.count("corpus.map.refs")) /
                                   static_cast<double>(requests)
                             : 0.0,
                "count", requests);
        out.add("trace.corpus_open_ms", median(open_ms), "ms",
                open_ms.size());
        out.add("trace.corpus_ingest_ms", ingest_ms, "ms", traces.size());
        out.add("serve.hit_frac", hit_frac, "frac", hits + misses);
        out.add("serve.first_frame_ms_p50", median(traced.firstFrameMs),
                "ms", traced.firstFrameMs.size());
        out.add("serve.request_ms_p50", median(server_hit_ms), "ms",
                server_hit_ms.size());
        out.add("serve.queue_high_water",
                static_cast<double>(site->server().stats().queueHighWater),
                "count");
        out.add("serve.compute_ms_per_miss_cell",
                misses > 0 ? snap.ms("sweep") / static_cast<double>(misses)
                           : 0.0,
                "ms", misses);
        const double tracing_ns =
            median(traced.missNsPerRef) - median(untraced.missNsPerRef);
        const double unaccounted =
            traced.latencySumMs > 0.0
                ? (traced.latencySumMs - span_ms) / traced.latencySumMs
                : 0.0;
        out.add("obs.tracing_overhead", tracing_ns, "ns",
                traced.missNsPerRef.size());
        out.add("obs.unaccounted_frac", unaccounted, "frac",
                traced.requests);
        std::printf("reconcile: serve.request spans %.3f ms of %.3f ms "
                    "client latency; unaccounted (socket + framing) "
                    "%.4f, tracing overhead %+.4f ns per config-ref\n",
                    span_ms, traced.latencySumMs, unaccounted, tracing_ns);
        finish(untraced);
        finish(traced);
    }
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

} // namespace occbench
