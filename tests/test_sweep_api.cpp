/**
 * @file
 * The unified sweep API contract (multi/sweep_api.hh): runSweep must
 * be bit-identical to the raw engine entry points it wraps — direct
 * per-config Cache simulation and one-trace planSweep + runSweepPlan —
 * for every engine policy and thread count, residency pair included;
 * the request knobs (maxRefs, wantAverage, explicit telemetry sink)
 * must each do what they say; the attached manifest must serialize to
 * valid occsim.run_manifest/1 JSON; and the planner's routes must not
 * depend on the policy that runs them, with every route's manifest
 * name matching the engine that actually ran it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "cache/sector_cache.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "multi/sweep_runner.hh"
#include "obs/json.hh"
#include "workload/suites.hh"

#include "env_guard.hh"
#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;

/** Reference engine: one direct runSingle per config, sequentially. */
std::vector<SweepResult>
sequentialSweep(const std::vector<CacheConfig> &configs,
                const VectorTrace &trace, std::uint64_t max_refs = 0)
{
    std::vector<SweepResult> out;
    out.reserve(configs.size());
    for (const CacheConfig &config : configs) {
        VectorTrace copy = trace;
        out.push_back(runSingle(config, copy, max_refs));
    }
    return out;
}

/** Two traces + a mixed grid (fused groups, sub == block and sector
 *  configs) so every engine route is exercised. */
struct Fixture
{
    Fixture()
    {
        const Suite suite = pdp11Suite();
        traces.push_back(buildTraceShared(suite.traces[0], kRefs));
        traces.push_back(buildTraceShared(suite.traces[1], kRefs));
        configs = paperGrid(1024, suite.profile.wordSize);
        // Add a sector point (sub < block) with no fused sibling, so
        // Auto routes it to the batched engine.
        CacheConfig sector =
            makeConfig(1024, 32, 8, suite.profile.wordSize);
        sector.fetch = FetchPolicy::LoadForward;
        configs.push_back(sector);
    }

    std::vector<std::shared_ptr<const VectorTrace>> traces;
    std::vector<CacheConfig> configs;
};

/** The manifest route names of @p report's sweep, in config order. */
std::vector<std::string>
manifestRoutes(const SweepReport &report)
{
    std::vector<std::string> out;
    for (const obs::ConfigRoute &route :
         report.manifest.sweeps.back().routes)
        out.push_back(route.engine);
    return out;
}

} // namespace

TEST(SweepApi, BitIdenticalToRawEngineAllEnginesAndThreads)
{
    const Fixture fx;
    for (const SweepEngine engine :
         {SweepEngine::Auto, SweepEngine::DirectOnly,
          SweepEngine::CrossCheck}) {
        for (const unsigned threads : {1u, 4u}) {
            // Reference: the raw engine layer, one plan per trace.
            ThreadPool pool(threads);
            std::vector<std::vector<SweepResult>> per_trace;
            for (const auto &trace : fx.traces) {
                SweepPlan plan = planSweep(fx.configs, engine,
                                           {trace->size()}, threads);
                runSweepPlan(plan, {trace}, {}, 0, pool);
                per_trace.push_back(planResults(plan, 0));
            }

            ThreadPool pool2(threads);
            SweepRequest request;
            request.traces = fx.traces;
            request.configs = fx.configs;
            request.engine = engine;
            request.pool = &pool2;
            request.label = "test";
            const SweepReport report = runSweep(request);

            expectIdenticalGrid(report.perTrace, per_trace);
            ASSERT_EQ(report.average.size(), fx.configs.size());
            const auto averaged = averageResults(per_trace);
            for (std::size_t c = 0; c < averaged.size(); ++c)
                expectIdentical(report.average[c], averaged[c]);
        }
    }
}

TEST(SweepApi, BitIdenticalToSequentialDirectSimulation)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    const SweepReport report = runSweep(request);

    for (std::size_t t = 0; t < fx.traces.size(); ++t) {
        const auto expected = sequentialSweep(fx.configs, *fx.traces[t]);
        ASSERT_EQ(report.perTrace[t].size(), expected.size());
        for (std::size_t c = 0; c < expected.size(); ++c)
            expectIdentical(report.perTrace[t][c], expected[c]);
    }
}

TEST(SweepApi, MaxRefsCapsEveryEngineIdentically)
{
    const Fixture fx;
    constexpr std::uint64_t kCap = 9000;

    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.maxRefs = kCap;
    const SweepReport report = runSweep(request);
    EXPECT_EQ(report.refs, kCap * fx.traces.size());

    // Same cap through the sequential reference engine.
    for (std::size_t t = 0; t < fx.traces.size(); ++t) {
        const auto expected =
            sequentialSweep(fx.configs, *fx.traces[t], kCap);
        for (std::size_t c = 0; c < expected.size(); ++c)
            expectIdentical(report.perTrace[t][c], expected[c]);
    }

    // And the cap must bind the cross-check path too.
    SweepRequest checked = request;
    checked.engine = SweepEngine::CrossCheck;
    const SweepReport checked_report = runSweep(checked);
    expectIdenticalGrid(checked_report.perTrace, report.perTrace);
}

TEST(SweepApi, ResidencyIsIdenticalOnEveryRoute)
{
    // Every route carries the residency pair bit-identically to the
    // CacheStats of a direct Cache (a merged SplitCache pair for the
    // split config). The grid reaches split, fused, batch and (under
    // OCCSIM_SHARD=1 on 4 workers) shard; DirectOnly and CrossCheck
    // add direct and shadows; packed input runs the packed engines.
    const Fixture fx;
    const std::uint32_t word = pdp11Suite().profile.wordSize;
    CacheConfig split = makeConfig(1024, 16, 8, word);
    split.partition = CachePartition::SplitID;
    CacheConfig forward = makeConfig(1024, 32, 8, word);
    forward.fetch = FetchPolicy::LoadForward;
    CacheConfig random = makeConfig(1024, 16, 4, word);
    random.replacement = ReplacementPolicy::Random;
    // 1024/32/8, its load-forward twin and its sub == block sibling
    // share one fused group (asserted from the manifest below).
    const std::vector<CacheConfig> configs{
        split, makeConfig(1024, 32, 8, word), forward,
        makeConfig(1024, 32, 32, word), makeConfig(2048, 64, 8, word),
        random, make360Model85Config(word)};

    // Want: the residency pair straight off each finished simulator.
    using Residency = std::pair<double, double>;
    const auto residency = [](const CacheStats &stats) {
        return Residency{stats.meanSubBlocksTouched(),
                         stats.neverReferencedFraction()};
    };
    std::vector<std::vector<Residency>> want;
    for (const auto &trace : fx.traces) {
        auto &row = want.emplace_back();
        for (const CacheConfig &config : configs) {
            if (config.partition == CachePartition::SplitID) {
                SplitCache pair = makeEvenSplit(config);
                for (const MemRef &ref : trace->refs())
                    pair.access(ref);
                pair.finalizeResidencies();
                CacheStats merged = pair.icache().stats();
                merged.mergeFrom(pair.dcache().stats());
                row.push_back(residency(merged));
            } else {
                Cache cache(config);
                for (const MemRef &ref : trace->refs())
                    cache.access(ref);
                cache.finalizeResidencies();
                row.push_back(residency(cache.stats()));
            }
        }
    }

    std::set<std::string> routes_seen;
    for (const unsigned threads : {1u, 4u}) {
        for (const char *mode :
             {"auto", "direct", "cross", "shard", "packed"}) {
            SCOPED_TRACE(std::string(mode) + " threads " +
                         std::to_string(threads));
            const std::string m = mode;
            const EnvGuard guard("OCCSIM_SHARD",
                                 m == "shard" ? "1" : nullptr);
            ThreadPool pool(threads);
            SweepRequest request;
            request.configs = configs;
            request.pool = &pool;
            if (m == "packed") {
                for (const auto &trace : fx.traces)
                    request.packedTraces.push_back(
                        packedTraceShared(trace));
            } else {
                request.traces = fx.traces;
            }
            request.engine = m == "direct" ? SweepEngine::DirectOnly
                             : m == "cross" ? SweepEngine::CrossCheck
                                            : SweepEngine::Auto;
            const SweepReport report = runSweep(request);
            const auto routes = manifestRoutes(report);
            routes_seen.insert(routes.begin(), routes.end());
            if (m == "auto") {
                for (const std::size_t c : {1u, 2u, 3u})
                    EXPECT_EQ(routes[c], "fused") << c;
            }

            const double n = static_cast<double>(fx.traces.size());
            for (std::size_t c = 0; c < configs.size(); ++c) {
                double mean_sum = 0.0;
                double never_sum = 0.0;
                for (std::size_t t = 0; t < fx.traces.size(); ++t) {
                    const SweepResult &got = report.perTrace[t][c];
                    EXPECT_EQ(got.meanSubBlocksTouched, want[t][c].first)
                        << configs[c].fullName();
                    EXPECT_EQ(got.neverReferencedFraction,
                              want[t][c].second)
                        << configs[c].fullName();
                    mean_sum += want[t][c].first;
                    never_sum += want[t][c].second;
                }
                EXPECT_EQ(report.average[c].meanSubBlocksTouched,
                          mean_sum / n);
                EXPECT_EQ(report.average[c].neverReferencedFraction,
                          never_sum / n);
            }
        }
    }
    EXPECT_EQ(routes_seen, (std::set<std::string>{"split", "fused",
                                                  "batch", "shard",
                                                  "direct"}));
}

TEST(SweepApi, WantAverageFalseSkipsAveraging)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.wantAverage = false;
    const SweepReport report = runSweep(request);
    EXPECT_TRUE(report.average.empty());
    EXPECT_EQ(report.perTrace.size(), fx.traces.size());
}

TEST(SweepApi, ExplicitTelemetrySinkRecordsUnconditionally)
{
    const Fixture fx;
    obs::Telemetry sink;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.telemetry = &sink;
    request.label = "sink-test";
    (void)runSweep(request);

    // The sweep-level span and counter must land in the private sink
    // even though the global registry may be disabled.
    const auto stages = sink.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].name, "sweep");
    EXPECT_EQ(stages[0].calls, 1u);
    const auto counters = sink.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].name, "sweep.refs");
    EXPECT_EQ(counters[0].value,
              kRefs * fx.traces.size() * fx.configs.size());
}

TEST(SweepApi, ReportManifestIsValidSchemaJson)
{
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = fx.configs;
    request.label = "manifest-test";
    const SweepReport report = runSweep(request);

    const std::string json = report.manifest.toJson();
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());

    const obs::JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "occsim.run_manifest/1");
    for (const char *key : {"binary", "git", "build", "threads",
                            "traces", "sweeps", "stages", "engines",
                            "counters"}) {
        EXPECT_NE(doc.find(key), nullptr) << key;
    }

    // Our sweep must be recorded with one route per config.
    const obs::JsonValue *sweeps = doc.find("sweeps");
    ASSERT_NE(sweeps, nullptr);
    ASSERT_TRUE(sweeps->isArray());
    const obs::JsonValue *ours = nullptr;
    for (const obs::JsonValue &sweep : sweeps->items) {
        const obs::JsonValue *label = sweep.find("label");
        if (label != nullptr && label->text == "manifest-test")
            ours = &sweep;
    }
    ASSERT_NE(ours, nullptr);
    const obs::JsonValue *routes = ours->find("configs");
    ASSERT_NE(routes, nullptr);
    EXPECT_EQ(routes->items.size(), fx.configs.size());
    for (const obs::JsonValue &route : routes->items) {
        const obs::JsonValue *engine = route.find("engine");
        ASSERT_NE(engine, nullptr);
        EXPECT_TRUE(engine->text == "direct" ||
                    engine->text == "batch" ||
                    engine->text == "shard" ||
                    engine->text == "fused")
            << engine->text;
    }

    // Both fixture traces appear in the trace identity list.
    const obs::JsonValue *traces = doc.find("traces");
    ASSERT_NE(traces, nullptr);
    EXPECT_GE(traces->items.size(), 2u);
}

TEST(SweepApi, ReportManifestCarriesOnlyItsOwnSweep)
{
    // The session keeps every sweep; each report carries its own.
    const Fixture fx;
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = {fx.configs.front()};
    for (int i = 0; i < 3; ++i) {
        request.label = "own-sweep-" + std::to_string(i);
        const SweepReport report = runSweep(request);
        ASSERT_EQ(report.manifest.sweeps.size(), 1u);
        EXPECT_EQ(report.manifest.sweeps[0].label, request.label);
        ASSERT_EQ(report.manifest.traces.size(), fx.traces.size());
        for (std::size_t t = 0; t < fx.traces.size(); ++t) {
            EXPECT_EQ(report.manifest.traces[t].name,
                      fx.traces[t]->name());
            EXPECT_EQ(report.manifest.traces[t].refs,
                      fx.traces[t]->refs().size());
        }
        EXPECT_EQ(report.manifest.schema, "occsim.run_manifest/1");
        EXPECT_FALSE(report.manifest.binary.empty());
    }
    EXPECT_GE(obs::currentManifest().sweeps.size(), 3u);
}

TEST(SweepApi, ValidateSweepRequestNamesEachRejection)
{
    const Fixture fx;
    SweepRequest good;
    good.traces = fx.traces;
    good.configs = fx.configs;
    EXPECT_EQ(validateSweepRequest(good), "");

    const auto packed = packedTraceShared(fx.traces.front());
    CacheConfig mesi = fx.configs.front();
    mesi.write = WritePolicy::CopyBack;
    mesi.writeAllocate = true;
    mesi.fetch = FetchPolicy::Demand;
    CacheConfig split = fx.configs.front();
    split.partition = CachePartition::SplitID;

    std::vector<SweepRequest> bad(11, good);
    bad[0].traces.clear();                       // no traces
    bad[1].packedTraces = {packed};              // both trace kinds
    bad[2].configs.clear();                      // no configs
    bad[3].traces.push_back(nullptr);            // null trace
    bad[4].traces.clear();                       // null packed trace
    bad[4].packedTraces = {nullptr};
    bad[5].configs[0].blockSize = 1;             // invalid config
    bad[5].configs[0].subBlockSize = 1;
    bad[5].configs[0].wordSize = 1;
    bad[6].scenario.cores = 0;                   // invalid scenario
    bad[7].configs = {mesi};                     // multicore, not Auto
    bad[7].scenario.cores = 2;
    bad[7].engine = SweepEngine::DirectOnly;
    bad[8].configs = {split};                    // split under Sampled
    bad[8].engine = SweepEngine::Sampled;
    bad[9].traces.clear();                       // packed, not Auto
    bad[9].packedTraces = {packed};
    bad[9].engine = SweepEngine::DirectOnly;
    bad[10].configs = {mesi};                    // bad per-core shape
    bad[10].scenario.cores = 2;
    bad[10].scenario.coreConfigs = {mesi, mesi};
    bad[10].scenario.coreConfigs[1].netSize = 1000;
    for (std::size_t i = 0; i < bad.size(); ++i)
        EXPECT_NE(validateSweepRequest(bad[i]), "") << "case " << i;

    // runSweep asserts on the same gate.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(runSweep(bad[5]), "invalid sweep request: invalid "
                                   "config");
}

TEST(SweepApi, CrossCheckRoutesExactlyLikeAuto)
{
    // Six traces of one shard-eligible config: the six batch tiles
    // alone fill a 4-worker pool, so the shard heuristic says no. The
    // verdict must weigh the whole sweep under CrossCheck too — its
    // shadows verify the routes Auto runs, not some other routes.
    const EnvGuard guard("OCCSIM_SHARD", nullptr);
    const Suite suite = pdp11Suite();
    std::vector<std::shared_ptr<const VectorTrace>> traces;
    for (std::size_t t = 0; t < 6; ++t)
        traces.push_back(buildTraceShared(suite.traces[t], 300000));
    CacheConfig config = makeConfig(1024, 32, 8, suite.profile.wordSize);
    config.fetch = FetchPolicy::LoadForward;

    ThreadPool pool(4);
    SweepRequest request;
    request.traces = traces;
    request.configs = {config};
    request.pool = &pool;
    const SweepReport automatic = runSweep(request);
    request.engine = SweepEngine::CrossCheck;
    const SweepReport checked = runSweep(request);

    const obs::SweepRecord &a = automatic.manifest.sweeps.back();
    const obs::SweepRecord &c = checked.manifest.sweeps.back();
    EXPECT_EQ(manifestRoutes(automatic),
              std::vector<std::string>{"batch"});
    EXPECT_EQ(manifestRoutes(checked), manifestRoutes(automatic));
    EXPECT_EQ(a.shardedRuns, 0u);
    EXPECT_EQ(c.shardedRuns, a.shardedRuns);
    EXPECT_GT(c.crossCheckSamples, 0u);
    expectIdenticalGrid(checked.perTrace, automatic.perTrace);
}

TEST(SweepApi, BatchTilesFollowThePoolWidth)
{
    // One trace, four configs neither fused nor sharded routes can
    // take (Random replacement, next-block prefetch). At four workers
    // each config gets a tile of its own, so three workers do not
    // idle behind one serial tile; at one worker they share one
    // default-width tile. The width never changes a result.
    const EnvGuard guard("OCCSIM_SHARD", nullptr);
    const Suite suite = pdp11Suite();
    const std::uint32_t word = suite.profile.wordSize;
    std::vector<CacheConfig> configs;
    for (const std::uint32_t size : {1024u, 4096u}) {
        CacheConfig random = makeConfig(size, 16, 8, word);
        random.replacement = ReplacementPolicy::Random;
        configs.push_back(random);
        CacheConfig prefetch = makeConfig(size, 16, 8, word);
        prefetch.fetch = FetchPolicy::PrefetchNextOnMiss;
        configs.push_back(prefetch);
    }
    const auto trace = buildTraceShared(suite.traces[0], kRefs);

    for (const unsigned threads : {4u, 1u}) {
        SCOPED_TRACE(threads);
        const SweepPlan plan =
            planSweep(configs, SweepEngine::Auto, {trace->size()},
                      threads);
        const auto tiles = std::count_if(
            plan.tasks.begin(), plan.tasks.end(), [](const PlanTask &t) {
                return t.kind == PlanTask::Kind::BatchTile;
            });
        EXPECT_EQ(tiles, threads == 4 ? 4 : 1);
        EXPECT_EQ(plan.tasks.size(), static_cast<std::size_t>(tiles));
        for (const SweepRoute route : plan.route)
            EXPECT_EQ(route, SweepRoute::Batch);

        ThreadPool pool(threads);
        SweepRequest request;
        request.traces = {trace};
        request.configs = configs;
        request.pool = &pool;
        const SweepReport automatic = runSweep(request);
        request.engine = SweepEngine::DirectOnly;
        const SweepReport direct = runSweep(request);
        expectIdenticalGrid(automatic.perTrace, direct.perTrace);
    }
}

TEST(SweepApi, EveryRouteReportsTheEngineThatRan)
{
    // One mixed grid reaching every route: a split I/D pair, a lone
    // sub == block config and a lone sector config (batched, or
    // sharded under OCCSIM_SHARD=1), a two-member fused group, and a
    // Random config (never shard-eligible, so always batched).
    const Fixture fx;
    const std::uint32_t word = pdp11Suite().profile.wordSize;
    CacheConfig split = makeConfig(1024, 16, 16, word);
    split.partition = CachePartition::SplitID;
    CacheConfig sector = makeConfig(1024, 32, 8, word);
    CacheConfig forward = sector;
    forward.fetch = FetchPolicy::LoadForward;
    CacheConfig random = makeConfig(1024, 16, 8, word);
    random.replacement = ReplacementPolicy::Random;
    const std::vector<CacheConfig> configs{
        split, makeConfig(1024, 16, 16, word), sector, forward,
        makeConfig(2048, 32, 8, word), random};

    ThreadPool pool(4);
    SweepRequest request;
    request.traces = fx.traces;
    request.configs = configs;
    request.pool = &pool;
    request.engine = SweepEngine::DirectOnly;
    const SweepReport direct = runSweep(request);

    const bool was_enabled = obs::telemetryEnabled();
    obs::setTelemetryEnabled(true);
    std::map<std::string, std::vector<std::string>> seen;
    for (const char *shard : {"0", "1", "direct"}) {
        const bool direct_only = std::string(shard) == "direct";
        const EnvGuard guard("OCCSIM_SHARD", direct_only ? nullptr
                                                         : shard);
        request.engine = direct_only ? SweepEngine::DirectOnly
                                     : SweepEngine::Auto;
        obs::telemetry().reset();
        const SweepReport report = runSweep(request);
        const auto counters = obs::telemetry().counters();
        const auto routes = manifestRoutes(report);
        ASSERT_EQ(routes.size(), configs.size());
        seen[shard] = routes;

        // Each engine's refs counter counts config-refs, so it must
        // equal the refs of exactly the configs the manifest names
        // for it (split pairs run on the direct engine).
        std::map<std::string, std::uint64_t> want;
        for (const std::string &route : routes)
            want[route == "split" ? "direct" : route] += report.refs;
        for (const char *engine :
             {"fused", "shard", "batch", "direct", "shadow"}) {
            std::uint64_t got = 0;
            for (const obs::CounterSnapshot &counter : counters) {
                if (counter.name == std::string("engine.") + engine +
                                        ".refs")
                    got = counter.value;
            }
            EXPECT_EQ(got, want[engine]) << shard << " " << engine;
        }
        expectIdenticalGrid(report.perTrace, direct.perTrace);
    }
    obs::telemetry().reset();
    obs::setTelemetryEnabled(was_enabled);

    using Routes = std::vector<std::string>;
    EXPECT_EQ(seen["0"], (Routes{"split", "batch", "fused", "fused",
                                 "batch", "batch"}));
    EXPECT_EQ(seen["1"], (Routes{"split", "shard", "fused", "fused",
                                 "shard", "batch"}));
    EXPECT_EQ(seen["direct"], (Routes{"split", "direct", "direct",
                                      "direct", "direct", "direct"}));
}

TEST(SweepApi, SubBlockEqualsBlockConfigsJoinTheirSectorSiblings)
{
    // Every sub == block point of the paper grid that has sector
    // siblings (block > word) shares their fused group key, so Auto
    // prices it in their group pass. The block == word point has no
    // sibling and batches.
    const Suite suite = pdp11Suite();
    SweepRequest request;
    request.traces = {buildTraceShared(suite.traces.front(), 5000)};
    request.configs = paperGrid(256, 2);
    ThreadPool pool(4);
    request.pool = &pool;
    const auto routes = manifestRoutes(runSweep(request));

    std::size_t fused = 0;
    for (std::size_t c = 0; c < request.configs.size(); ++c) {
        const CacheConfig &config = request.configs[c];
        if (config.subBlockSize != config.blockSize)
            continue;
        const char *want =
            config.blockSize > config.wordSize ? "fused" : "batch";
        EXPECT_EQ(routes[c], want) << config.shortName();
        fused += routes[c] == "fused";
    }
    EXPECT_EQ(fused, 4u);  // blocks 4, 8, 16, 32
}

TEST(SweepApi, EngineNamesAreStable)
{
    EXPECT_STREQ(sweepEngineName(SweepEngine::Auto), "auto");
    EXPECT_STREQ(sweepEngineName(SweepEngine::DirectOnly),
                 "direct_only");
    EXPECT_STREQ(sweepEngineName(SweepEngine::CrossCheck),
                 "cross_check");
}
