/**
 * @file
 * The coherent multi-cache engine and the scenario-first sweep API
 * around it.
 *
 *  - The anchor invariant: a 1-core scenario degenerates to the
 *    single-cache model bit for bit, across the paper's whole Table 6
 *    grid, both at the engine level (CoherentSystem vs Cache) and
 *    through runSweep() routing.
 *  - The three parallel workloads replay through the coherent engine
 *    and the flat-snooping oracle with every counter agreeing.
 *  - Workload generation is a pure function of its params.
 *  - validateScenario() rejects every malformed scenario shape with a
 *    human-readable reason.
 *  - The serve-layer identity key and canonical scenario JSON never
 *    alias a multicore request to a single-cache one (or to a
 *    different scenario).
 *  - Every coherent-kernel instantiation (LRU/FIFO/Random x
 *    1/2/4/8-way and runtime-assoc, plus a mixed-shape scenario)
 *    gives the same counters through access(), the MemRef span
 *    replay and replayPacked; engine.coherent.generic_refs names the
 *    runtime-shape kernel; and the fuzz_mesi draw reaches every
 *    instantiation.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/cache.hh"
#include "check/coherence_check.hh"
#include "check/generators.hh"
#include "coherence/coherent_system.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "obs/telemetry.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "trace/packed_trace.hh"
#include "workload/parallel.hh"

#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kSeed = 0xc0045ull;

/** Clamp a grid entry onto the MESI subset the engine supports. */
CacheConfig
mesiSubset(CacheConfig config)
{
    config.write = WritePolicy::CopyBack;
    config.writeAllocate = true;
    config.fetch = FetchPolicy::Demand;
    config.partition = CachePartition::Unified;
    return config;
}

ParallelWorkloadParams
smallWorkload(std::uint32_t cores)
{
    ParallelWorkloadParams params;
    params.cores = cores;
    params.refsPerCore = 1500;
    params.wordSize = 2;
    params.seed = kSeed;
    return params;
}

} // namespace

TEST(Coherence, OneCoreScenarioMatchesThePlainCacheOnTable6)
{
    // With a single core the bus degenerates: every fill lands
    // Exclusive, upgrades are silent, and the per-core statistics
    // must be bit-identical to a plain Cache over the same trace —
    // on every Table 6 design point.
    TraceGen gen(kSeed);
    const auto trace = gen.make(12000, 2);
    ScenarioConfig one_core;
    for (const CacheConfig &point : paperGrid(1024, 2)) {
        const CacheConfig config = mesiSubset(point);

        Cache direct(config);
        for (const MemRef &ref : trace->refs())
            direct.access(ref);
        direct.finalizeResidencies();

        CoherentSystem system(one_core, config);
        for (const MemRef &ref : trace->refs())
            system.access(ref);
        system.finalize();

        const CacheStats &got = system.core(0).stats();
        const CacheStats &want = direct.stats();
        ASSERT_EQ(got.accesses(), want.accesses()) << config.fullName();
        ASSERT_EQ(got.misses(), want.misses()) << config.fullName();
        ASSERT_EQ(got.coldMisses(), want.coldMisses());
        ASSERT_EQ(got.ifetchAccesses(), want.ifetchAccesses());
        ASSERT_EQ(got.ifetchMisses(), want.ifetchMisses());
        ASSERT_EQ(got.writeAccesses(), want.writeAccesses());
        ASSERT_EQ(got.writeMisses(), want.writeMisses());
        ASSERT_EQ(got.wordsFetched(), want.wordsFetched());
        ASSERT_EQ(got.coldWordsFetched(), want.coldWordsFetched());
        ASSERT_EQ(got.writeWordsFetched(), want.writeWordsFetched());
        ASSERT_EQ(got.storeWords(), want.storeWords());
        ASSERT_EQ(got.writebackWords(), want.writebackWords());
        ASSERT_EQ(got.bursts(), want.bursts());
        ASSERT_EQ(got.evictions(), want.evictions());

        // The degenerate bus still carries the memory fills (reads
        // and read-for-ownership), but no coherency traffic: nothing
        // to invalidate, upgrade, supply or flush.
        EXPECT_EQ(system.bus().busUpgrades, 0u);
        EXPECT_EQ(system.bus().invalidations, 0u);
        EXPECT_EQ(system.bus().cacheToCacheTransfers, 0u);
        EXPECT_EQ(system.bus().c2cWords, 0u);
        EXPECT_EQ(system.bus().snoopWritebackWords, 0u);
    }
}

TEST(Coherence, OneCoreScenarioRoutesIdenticallyThroughRunSweep)
{
    // An explicit cores == 1 scenario IS the pre-redesign request:
    // runSweep must produce byte-identical headline numbers to a
    // request that never touched the scenario field.
    TraceGen gen(kSeed + 1);
    SweepRequest plain;
    plain.traces.push_back(gen.make(8000, 2));
    for (const CacheConfig &point : paperGrid(256, 2))
        plain.configs.push_back(mesiSubset(point));

    SweepRequest scenario_request = plain;
    scenario_request.scenario = ScenarioConfig{};
    scenario_request.scenario.cores = 1;

    const SweepReport a = runSweep(plain);
    const SweepReport b = runSweep(scenario_request);
    ASSERT_EQ(a.perTrace.size(), b.perTrace.size());
    for (std::size_t c = 0; c < a.perTrace[0].size(); ++c) {
        const SweepResult &ra = a.perTrace[0][c];
        const SweepResult &rb = b.perTrace[0][c];
        expectIdentical(ra, rb);
        EXPECT_FALSE(ra.coherency.active);
        EXPECT_FALSE(rb.coherency.active);
    }
}

TEST(Coherence, WorkloadsMatchTheFlatSnoopingOracle)
{
    // Each parallel workload, through the coherent engine and the
    // naive oracle: every per-core counter and every bus counter
    // must agree (runCoherencyCase also cross-checks the routed
    // runSweep result).
    const CacheConfig config =
        mesiSubset(makeConfig(1024, 16, 8, 2));
    for (const ParallelWorkloadKind kind :
         {ParallelWorkloadKind::SharedQueue,
          ParallelWorkloadKind::PartitionedSum,
          ParallelWorkloadKind::ProducerConsumerRing}) {
        for (const std::uint32_t cores : {2u, 4u}) {
            const VectorTrace trace =
                makeParallelTrace(kind, smallWorkload(cores));
            ScenarioConfig scenario;
            scenario.cores = cores;
            const CoherenceCaseReport report = runCoherencyCase(
                scenario, config, trace.refs(),
                parallelWorkloadName(kind));
            for (const std::string &line : report.diffs)
                ADD_FAILURE() << parallelWorkloadName(kind) << " x"
                              << cores << ": " << line;
        }
    }
}

TEST(Coherence, MulticoreSweepGeneratesCoherencyTraffic)
{
    // The shared-queue workload is built to communicate: its 2-core
    // sweep must surface invalidations and upgrades in the routed
    // SweepResult, and its per-core miss ratios must be populated.
    const VectorTrace trace =
        makeSharedQueueTrace(smallWorkload(2));
    SweepRequest request;
    request.traces.push_back(
        std::make_shared<const VectorTrace>(trace));
    request.configs = {mesiSubset(makeConfig(1024, 16, 8, 2))};
    request.scenario.cores = 2;
    const SweepReport report = runSweep(request);
    const SweepResult &result = report.perTrace.at(0).at(0);
    ASSERT_TRUE(result.coherency.active);
    EXPECT_EQ(result.coherency.cores, 2u);
    EXPECT_GT(result.coherency.invalidations, 0u);
    EXPECT_GT(result.coherency.busUpgrades +
                  result.coherency.busReadForOwnership,
              0u);
    EXPECT_GT(result.coherency.invalidationsPerKiloRef, 0.0);
    ASSERT_EQ(result.coherency.coreMissRatios.size(), 2u);
}

TEST(Coherence, WorkloadsAreDeterministic)
{
    for (const ParallelWorkloadKind kind :
         {ParallelWorkloadKind::SharedQueue,
          ParallelWorkloadKind::PartitionedSum,
          ParallelWorkloadKind::ProducerConsumerRing}) {
        const VectorTrace a =
            makeParallelTrace(kind, smallWorkload(3));
        const VectorTrace b =
            makeParallelTrace(kind, smallWorkload(3));
        ASSERT_EQ(a.size(), b.size());
        bool any_core_above_zero = false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].addr, b[i].addr);
            ASSERT_EQ(a[i].kind, b[i].kind);
            ASSERT_EQ(a[i].core, b[i].core);
            ASSERT_LT(a[i].core, 3u);
            any_core_above_zero = any_core_above_zero || a[i].core > 0;
        }
        EXPECT_TRUE(any_core_above_zero);

        // A different interleaving seed must actually reshuffle.
        ParallelWorkloadParams reseeded = smallWorkload(3);
        reseeded.seed = kSeed + 99;
        const VectorTrace c = makeParallelTrace(kind, reseeded);
        bool any_difference = c.size() != a.size();
        for (std::size_t i = 0; !any_difference && i < a.size(); ++i)
            any_difference = a[i].addr != c[i].addr ||
                             a[i].core != c[i].core;
        EXPECT_TRUE(any_difference) << parallelWorkloadName(kind);
    }
}

TEST(Coherence, ValidateScenarioRejectsMalformedShapes)
{
    const CacheConfig good = mesiSubset(makeConfig(1024, 16, 8, 2));
    const std::vector<CacheConfig> grid{good};

    ScenarioConfig ok;
    ok.cores = 2;
    EXPECT_EQ(validateScenario(ok, grid), "");

    ScenarioConfig zero;
    zero.cores = 0;
    EXPECT_NE(validateScenario(zero, grid), "");

    ScenarioConfig too_many;
    too_many.cores = PackedRecord::kMaxCores + 1;
    EXPECT_NE(validateScenario(too_many, grid), "");

    // Per-core configs require a multicore scenario...
    ScenarioConfig one_core_shapes;
    one_core_shapes.cores = 1;
    one_core_shapes.coreConfigs = {good};
    EXPECT_NE(validateScenario(one_core_shapes, grid), "");

    // ...must match the core count...
    ScenarioConfig wrong_count;
    wrong_count.cores = 2;
    wrong_count.coreConfigs = {good, good, good};
    EXPECT_NE(validateScenario(wrong_count, grid), "");

    // ...and collapse the sweep grid to exactly one entry.
    ScenarioConfig with_grid;
    with_grid.cores = 2;
    with_grid.coreConfigs = {good, good};
    EXPECT_NE(validateScenario(with_grid, {good, good}), "");
    EXPECT_EQ(validateScenario(with_grid, grid), "");

    // The MESI subset: no write-through, no split halves, and one
    // bus-wide block/sub-block/word geometry.
    CacheConfig write_through = good;
    write_through.write = WritePolicy::WriteThrough;
    EXPECT_NE(validateScenario(ok, {write_through}), "");

    CacheConfig split = good;
    split.partition = CachePartition::SplitID;
    EXPECT_NE(validateScenario(ok, {split}), "");

    CacheConfig other_block = good;
    other_block.blockSize = 32;
    ScenarioConfig mixed_geometry;
    mixed_geometry.cores = 2;
    mixed_geometry.coreConfigs = {good, other_block};
    EXPECT_NE(validateScenario(mixed_geometry, grid), "");
}

TEST(Coherence, ScenarioIdentityNeverAliases)
{
    const CacheConfig config = mesiSubset(makeConfig(1024, 16, 8, 2));

    // Pre-scenario keys stay byte-identical: a default scenario adds
    // no suffix, so old cache entries keep their identity.
    const std::string plain =
        serve::ResultCache::key("hash", 0, config);
    const std::string one_core = serve::ResultCache::key(
        "hash", 0, config, ScenarioConfig{});
    EXPECT_EQ(plain, one_core);

    ScenarioConfig two;
    two.cores = 2;
    const std::string multicore =
        serve::ResultCache::key("hash", 0, config, two);
    EXPECT_NE(multicore, plain);

    ScenarioConfig four = two;
    four.cores = 4;
    EXPECT_NE(serve::ResultCache::key("hash", 0, config, four),
              multicore);

    // Asymmetric shapes change the canonical scenario JSON (and so
    // the key) even at the same core count.
    ScenarioConfig asymmetric = two;
    CacheConfig small = config;
    small.netSize = 512;
    asymmetric.coreConfigs = {config, small};
    EXPECT_NE(serve::canonicalScenarioJson(asymmetric),
              serve::canonicalScenarioJson(two));
    EXPECT_NE(serve::ResultCache::key("hash", 0, config, asymmetric),
              multicore);
}

namespace {

/** Every counter of @p a and @p b — per-core CacheStats and bus
 *  CoherencyStats — as one mismatch line per differing field. */
std::vector<std::string>
diffSystems(const std::string &label, const CoherentSystem &a,
            const CoherentSystem &b)
{
    std::vector<std::string> diffs;
    for (std::uint32_t c = 0; c < a.numCores(); ++c) {
        for (std::string &line :
             diffCacheStats(label + " core " + std::to_string(c),
                            a.core(c).stats(), b.core(c).stats()))
            diffs.push_back(std::move(line));
    }
    if (!(a.bus() == b.bus()))
        diffs.push_back(label + ": bus CoherencyStats differ");
    return diffs;
}

/** Sharing plus aliasing: the shared-queue workload (real
 *  upgrades and cache-to-cache supply) followed by an adversarial
 *  trace stamped with core ids 0..4, so a 3-core scenario also takes
 *  the modulo reduction of out-of-range stamps. */
VectorTrace
kernelTrace()
{
    std::vector<MemRef> refs =
        makeSharedQueueTrace(smallWorkload(3)).refs();
    Rng stamps(kSeed);
    TraceGen gen(kSeed + 7);
    const auto adversarial = gen.make(6000, 2);
    for (MemRef ref : adversarial->refs()) {
        ref.core = static_cast<std::uint8_t>(stamps.below(5));
        refs.push_back(ref);
    }
    return VectorTrace("kernel-equivalence", std::move(refs));
}

/** Replay @p trace on @p scenario through access(), the MemRef span
 *  replay and replayPacked; all three must agree on every counter,
 *  and with the flat-snooping oracle. @return the span system's
 *  kernel shape (genericKernel()). */
bool
expectEntryPointsAgree(const ScenarioConfig &scenario,
                       const CacheConfig &config,
                       const VectorTrace &trace)
{
    const std::string label =
        std::to_string(scenario.cores) + "x" + config.fullName();

    CoherentSystem per_ref(scenario, config);
    for (const MemRef &ref : trace.refs())
        per_ref.access(ref);
    per_ref.finalize();

    CoherentSystem span(scenario, config);
    span.replay(trace.refs().data(), trace.size());
    span.finalize();

    const PackedTrace packed(trace);
    CoherentSystem packed_system(scenario, config);
    packed_system.replayPacked(packed.data(), packed.size());
    packed_system.finalize();

    for (const std::string &line :
         diffSystems(label + " access/replay", per_ref, span))
        ADD_FAILURE() << line;
    for (const std::string &line :
         diffSystems(label + " access/replayPacked", per_ref,
                     packed_system))
        ADD_FAILURE() << line;
    for (const std::string &line :
         runCoherencyCase(scenario, config, trace.refs(), label).diffs)
        ADD_FAILURE() << line;

    EXPECT_GT(span.bus().invalidations, 0u) << label;
    EXPECT_EQ(per_ref.genericKernel(), span.genericKernel());
    return span.genericKernel();
}

/** Value of telemetry counter @p name (0 when never bumped). */
std::uint64_t
counterValue(const std::string &name)
{
    for (const obs::CounterSnapshot &counter :
         obs::telemetry().counters()) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

/** The asymmetric kernel scenario: LRU direct-mapped cores around a
 *  Random 4-way one. */
ScenarioConfig
mixedShapeScenario(const CacheConfig &base)
{
    CacheConfig direct = base;
    direct.assoc = 1;
    direct.replacement = ReplacementPolicy::LRU;
    CacheConfig random4 = base;
    random4.assoc = 4;
    random4.replacement = ReplacementPolicy::Random;
    ScenarioConfig scenario;
    scenario.cores = 3;
    scenario.coreConfigs = {direct, random4, direct};
    return scenario;
}

} // namespace

TEST(Coherence, EveryKernelAgreesAcrossEntryPoints)
{
    // 512 B of 16-byte blocks: 32 frames, so "fully associative" is
    // the 32-way runtime-assoc kernel while 1/2/4/8 ways are the
    // unrolled ones.
    const CacheConfig base = mesiSubset(makeConfig(512, 16, 8, 2));
    const VectorTrace trace = kernelTrace();
    ScenarioConfig scenario;
    scenario.cores = 3;
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random}) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 32u}) {
            CacheConfig config = base;
            config.replacement = policy;
            config.assoc = assoc;
            EXPECT_EQ(expectEntryPointsAgree(scenario, config, trace),
                      assoc == 32)
                << config.fullName();
        }
    }

    const ScenarioConfig mixed = mixedShapeScenario(base);
    ASSERT_EQ(validateScenario(mixed, {mixed.coreConfigs.front()}), "");
    EXPECT_TRUE(expectEntryPointsAgree(
        mixed, mixed.coreConfigs.front(), trace));
}

TEST(Coherence, GenericRefsCounterNamesTheRuntimeShapeKernel)
{
    // engine.coherent.generic_refs counts the references the
    // runtime-shape kernel replayed: none for a grid of 1/2/4/8-way
    // shapes (mesi_4core's), all of them for a fully associative or
    // mixed-shape scenario.
    const bool was_enabled = obs::telemetryEnabled();
    obs::setTelemetryEnabled(true);
    const CacheConfig base = mesiSubset(makeConfig(512, 16, 8, 2));
    SweepRequest request;
    request.traces.push_back(
        std::make_shared<const VectorTrace>(kernelTrace()));
    const std::uint64_t refs = request.traces[0]->size();

    CacheConfig four_way = base;
    four_way.assoc = 4;
    CacheConfig full = base;
    full.assoc = 32;
    const ScenarioConfig mixed = mixedShapeScenario(base);

    const auto sweep = [&](const std::vector<CacheConfig> &configs,
                           const ScenarioConfig &scenario) {
        obs::telemetry().reset();
        request.configs = configs;
        request.scenario = scenario;
        runSweep(request);
        EXPECT_EQ(counterValue("engine.coherent.refs"),
                  refs * configs.size());
        return counterValue("engine.coherent.generic_refs");
    };
    ScenarioConfig four_cores;
    four_cores.cores = 4;
    EXPECT_EQ(sweep({base, four_way}, four_cores), 0u);
    EXPECT_EQ(sweep({four_way, full}, four_cores), refs);
    EXPECT_EQ(sweep({mixed.coreConfigs.front()}, mixed), refs);

    obs::telemetry().reset();
    obs::setTelemetryEnabled(was_enabled);
}

TEST(Coherence, FuzzDrawReachesEveryKernel)
{
    // The fuzz_mesi case stream (default master seed, its 150 cases)
    // must exercise every coherent-kernel instantiation against the
    // oracle: the unrolled 1/2/4/8-way ones and the runtime-shape one
    // for both symmetric and asymmetric scenarios.
    const CoherenceFuzzOptions options;
    Rng master(options.seed);
    std::set<std::uint32_t> unrolled;
    bool generic_symmetric = false;
    bool generic_asymmetric = false;
    for (int i = 0; i < 150; ++i) {
        const CoherenceFuzzCase fuzz_case =
            makeCoherenceFuzzCase(master.next(), 64);
        const CoherentSystem system(fuzz_case.scenario,
                                    fuzz_case.config);
        if (!system.genericKernel())
            unrolled.insert(system.core(0).config().assoc);
        else if (fuzz_case.scenario.coreConfigs.empty())
            generic_symmetric = true;
        else
            generic_asymmetric = true;
    }
    EXPECT_EQ(unrolled, (std::set<std::uint32_t>{1, 2, 4, 8}));
    EXPECT_TRUE(generic_symmetric);
    EXPECT_TRUE(generic_asymmetric);
}
