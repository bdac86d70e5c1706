#include "check/coherence_check.hh"

#include <algorithm>
#include <memory>
#include <ostream>

#include "check/generators.hh"
#include "multi/sweep_api.hh"
#include "multi/sweep_runner.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "workload/parallel.hh"

namespace occsim {

// ---------------------------------------------------------------- //
// FlatSnoopOracle
// ---------------------------------------------------------------- //

FlatSnoopOracle::Core::Core(const CacheConfig &cfg)
    : config(cfg), randomVictims(cfg.randomSeed)
{
    const std::uint32_t num_blocks = cfg.netSize / cfg.blockSize;
    assoc = std::min(cfg.assoc, num_blocks);
    numSets = num_blocks / assoc;
}

FlatSnoopOracle::FlatSnoopOracle(const ScenarioConfig &scenario,
                                 const CacheConfig &grid_config)
{
    occsim_assert(scenario.cores >= 1,
                  "oracle scenario needs at least one core");
    const CacheConfig &first =
        scenarioCoreConfig(scenario, grid_config, 0);
    blockSize_ = first.blockSize;
    subBlockSize_ = first.subBlockSize;
    numSubs_ = blockSize_ / subBlockSize_;
    wordsPerSub_ = subBlockSize_ / first.wordSize;

    cores_.reserve(scenario.cores);
    for (std::uint32_t c = 0; c < scenario.cores; ++c) {
        const CacheConfig &config =
            scenarioCoreConfig(scenario, grid_config, c);
        occsim_assert(config.blockSize == blockSize_ &&
                          config.subBlockSize == subBlockSize_ &&
                          config.wordSize == first.wordSize,
                      "oracle cores must share block geometry");
        occsim_assert(config.write == WritePolicy::CopyBack &&
                          config.writeAllocate &&
                          config.fetch == FetchPolicy::Demand &&
                          config.partition == CachePartition::Unified,
                      "oracle config outside the MESI subset (%s)",
                      config.fullName().c_str());
        cores_.emplace_back(config);
        Core &core = cores_.back();

        Frame empty;
        empty.valid.assign(numSubs_, false);
        empty.touched.assign(numSubs_, false);
        empty.dirty.assign(numSubs_, false);
        core.frames.assign(core.numSets,
                           std::vector<Frame>(core.assoc, empty));
        core.everFilled.assign(
            core.numSets,
            std::vector<std::vector<bool>>(
                core.assoc, std::vector<bool>(numSubs_, false)));
        core.order.resize(core.numSets);
        for (std::uint32_t set = 0; set < core.numSets; ++set) {
            for (std::uint32_t way = 0; way < core.assoc; ++way)
                core.order[set].push_back(way);
        }
        core.stats.burstWords.assign(
            static_cast<std::size_t>(numSubs_) * wordsPerSub_ + 1, 0);
        core.stats.coldBurstWords = core.stats.burstWords;
        core.stats.residencyTouched.assign(numSubs_ + 1, 0);
    }
}

int
FlatSnoopOracle::findWay(const Core &core, std::uint32_t set,
                         Addr block_addr) const
{
    for (std::uint32_t way = 0; way < core.assoc; ++way) {
        if (core.frames[set][way].present &&
            core.frames[set][way].tag == block_addr) {
            return static_cast<int>(way);
        }
    }
    return -1;
}

std::uint32_t
FlatSnoopOracle::chooseVictim(Core &core, std::uint32_t set)
{
    for (std::uint32_t way = 0; way < core.assoc; ++way) {
        if (!core.frames[set][way].present)
            return way;
    }
    if (core.config.replacement == ReplacementPolicy::Random) {
        return static_cast<std::uint32_t>(
            core.randomVictims.below(core.assoc));
    }
    return core.order[set].front();
}

void
FlatSnoopOracle::noteAccess(Core &core, std::uint32_t set,
                            std::uint32_t way)
{
    if (core.config.replacement != ReplacementPolicy::LRU)
        return;
    std::vector<std::uint32_t> &order = core.order[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.push_back(way);
}

void
FlatSnoopOracle::noteFill(Core &core, std::uint32_t set,
                          std::uint32_t way)
{
    if (core.config.replacement == ReplacementPolicy::Random)
        return;
    std::vector<std::uint32_t> &order = core.order[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.push_back(way);
}

void
FlatSnoopOracle::fillSub(Core &core, std::uint32_t set,
                         std::uint32_t way, std::uint32_t sub,
                         bool counted, bool cold)
{
    core.frames[set][way].valid[sub] = true;
    core.everFilled[set][way][sub] = true;
    const std::uint64_t words = wordsPerSub_;
    if (!counted) {
        core.stats.writeWords += words;
        return;
    }
    core.stats.wordsFetched += words;
    ++core.stats.bursts;
    ++core.stats.burstWords[words];
    if (cold) {
        core.stats.coldWords += words;
        ++core.stats.coldBurstWords[words];
    }
}

std::uint64_t
FlatSnoopOracle::writebackDirty(Core &core, Frame &frame)
{
    std::uint64_t dirty_subs = 0;
    for (std::uint32_t sub = 0; sub < numSubs_; ++sub) {
        if (frame.dirty[sub]) {
            ++dirty_subs;
            frame.dirty[sub] = false;
        }
    }
    if (dirty_subs == 0)
        return 0;
    const std::uint64_t words = dirty_subs * wordsPerSub_;
    core.stats.writebackWords += words;
    return words;
}

void
FlatSnoopOracle::endResidency(Core &core, Frame &frame)
{
    std::uint32_t touched = 0;
    for (std::uint32_t sub = 0; sub < numSubs_; ++sub) {
        if (frame.touched[sub])
            ++touched;
    }
    ++core.stats.evictions;
    ++core.stats.residencyTouched[touched];
    writebackDirty(core, frame);
}

bool
FlatSnoopOracle::snoopRead(std::uint32_t requester, Addr block_addr)
{
    bool shared = false;
    for (std::uint32_t p = 0; p < numCores(); ++p) {
        if (p == requester)
            continue;
        Core &peer = cores_[p];
        const std::uint32_t set =
            static_cast<std::uint32_t>(block_addr % peer.numSets);
        const int way = findWay(peer, set, block_addr);
        if (way < 0)
            continue;
        shared = true;
        Frame &frame =
            peer.frames[set][static_cast<std::uint32_t>(way)];
        if (frame.state == MesiState::Modified) {
            // The owner flushes dirty words to memory and supplies
            // the requested sub-block cache-to-cache.
            bus_.snoopWritebackWords += writebackDirty(peer, frame);
            ++bus_.cacheToCacheTransfers;
            bus_.c2cWords += wordsPerSub_;
        }
        frame.state =
            mesiNext(frame.state, MesiEvent::SnoopRead, false);
    }
    return shared;
}

void
FlatSnoopOracle::snoopInvalidate(std::uint32_t requester,
                                 Addr block_addr, bool upgrade)
{
    for (std::uint32_t p = 0; p < numCores(); ++p) {
        if (p == requester)
            continue;
        Core &peer = cores_[p];
        const std::uint32_t set =
            static_cast<std::uint32_t>(block_addr % peer.numSets);
        const int way = findWay(peer, set, block_addr);
        if (way < 0)
            continue;
        Frame &frame =
            peer.frames[set][static_cast<std::uint32_t>(way)];
        const MesiState next = mesiNext(
            frame.state,
            upgrade ? MesiEvent::SnoopUpgrade : MesiEvent::SnoopReadX,
            false);
        occsim_assert(next == MesiState::Invalid,
                      "oracle snoop invalidation left state %s",
                      mesiStateName(next));
        if (frame.state == MesiState::Modified) {
            bus_.snoopWritebackWords += writebackDirty(peer, frame);
            ++bus_.cacheToCacheTransfers;
            bus_.c2cWords += wordsPerSub_;
        }
        // Retire the residency the invalidation ends.
        std::uint32_t touched = 0;
        for (std::uint32_t sub = 0; sub < numSubs_; ++sub) {
            if (frame.touched[sub])
                ++touched;
        }
        if (touched != 0) {
            ++peer.stats.evictions;
            ++peer.stats.residencyTouched[touched];
        }
        frame.present = false;
        frame.tag = 0;
        frame.state = MesiState::Invalid;
        frame.valid.assign(numSubs_, false);
        frame.touched.assign(numSubs_, false);
        frame.dirty.assign(numSubs_, false);
        ++bus_.invalidations;
    }
}

void
FlatSnoopOracle::access(const MemRef &ref)
{
    Core &core = cores_[ref.core % numCores()];
    const bool is_write = ref.isWrite();
    const bool is_ifetch = ref.isInstruction();
    const bool counted = !is_write;
    const Addr block_addr = blockAddrOf(ref.addr);
    const std::uint32_t set =
        static_cast<std::uint32_t>(block_addr % core.numSets);
    const std::uint32_t sub = subIndexOf(ref.addr);
    const std::uint32_t requester = static_cast<std::uint32_t>(
        &core - cores_.data());

    const int way = findWay(core, set, block_addr);
    if (way >= 0) {
        Frame &frame =
            core.frames[set][static_cast<std::uint32_t>(way)];
        noteAccess(core, set, static_cast<std::uint32_t>(way));
        frame.touched[sub] = true;
        if (frame.valid[sub]) {
            if (counted) {
                ++core.stats.accesses;
                if (is_ifetch)
                    ++core.stats.ifetchAccesses;
                frame.state = mesiNext(frame.state,
                                       MesiEvent::LocalRead, false);
                return;
            }
            ++core.stats.writeAccesses;
            if (frame.state == MesiState::Shared) {
                // Address-only upgrade: peers drop their copies.
                ++bus_.busUpgrades;
                snoopInvalidate(requester, block_addr,
                                /*upgrade=*/true);
            }
            frame.state =
                mesiNext(frame.state, MesiEvent::LocalWrite, false);
            frame.dirty[sub] = true;
            return;
        }
        // Sub-block miss on a held tag: plain bus read, plus an
        // ownership change when a write finds the block Shared.
        const bool cold =
            !core.everFilled[set][static_cast<std::uint32_t>(way)][sub];
        if (counted) {
            ++core.stats.accesses;
            ++core.stats.misses;
            if (cold)
                ++core.stats.coldMisses;
            if (is_ifetch) {
                ++core.stats.ifetchAccesses;
                ++core.stats.ifetchMisses;
            }
            ++bus_.busReads;
            frame.state =
                mesiNext(frame.state, MesiEvent::LocalRead, false);
        } else {
            ++core.stats.writeAccesses;
            ++core.stats.writeMisses;
            if (frame.state == MesiState::Shared) {
                ++bus_.busReadForOwnership;
                snoopInvalidate(requester, block_addr,
                                /*upgrade=*/false);
            } else {
                ++bus_.busReads;
            }
            frame.state =
                mesiNext(frame.state, MesiEvent::LocalWrite, false);
        }
        fillSub(core, set, static_cast<std::uint32_t>(way), sub,
                counted, cold);
        if (is_write)
            frame.dirty[sub] = true;
        return;
    }

    // Block miss: allocate a frame (write-allocate throughout the
    // MESI subset, so writes allocate too).
    const std::uint32_t victim = chooseVictim(core, set);
    Frame &frame = core.frames[set][victim];
    if (frame.present)
        endResidency(core, frame);
    const bool cold = !core.everFilled[set][victim][sub];
    if (counted) {
        ++core.stats.accesses;
        ++core.stats.misses;
        ++core.stats.blockMisses;
        if (cold)
            ++core.stats.coldMisses;
        if (is_ifetch) {
            ++core.stats.ifetchAccesses;
            ++core.stats.ifetchMisses;
        }
    } else {
        ++core.stats.writeAccesses;
        ++core.stats.writeMisses;
    }

    frame.present = true;
    frame.tag = block_addr;
    frame.valid.assign(numSubs_, false);
    frame.touched.assign(numSubs_, false);
    frame.dirty.assign(numSubs_, false);
    frame.touched[sub] = true;
    noteFill(core, set, victim);

    if (counted) {
        ++bus_.busReads;
        const bool shared = snoopRead(requester, block_addr);
        frame.state = mesiNext(MesiState::Invalid,
                               MesiEvent::LocalRead, shared);
    } else {
        ++bus_.busReadForOwnership;
        snoopInvalidate(requester, block_addr, /*upgrade=*/false);
        frame.state = mesiNext(MesiState::Invalid,
                               MesiEvent::LocalWrite, false);
    }
    fillSub(core, set, victim, sub, counted, cold);
    if (is_write)
        frame.dirty[sub] = true;
}

void
FlatSnoopOracle::run(const std::vector<MemRef> &refs)
{
    for (const MemRef &ref : refs)
        access(ref);
    finalize();
}

void
FlatSnoopOracle::finalize()
{
    for (Core &core : cores_) {
        for (std::uint32_t set = 0; set < core.numSets; ++set) {
            for (std::uint32_t way = 0; way < core.assoc; ++way) {
                Frame &frame = core.frames[set][way];
                std::uint32_t touched = 0;
                for (std::uint32_t sub = 0; sub < numSubs_; ++sub) {
                    if (frame.touched[sub])
                        ++touched;
                }
                if (frame.present && touched != 0) {
                    ++core.stats.evictions;
                    ++core.stats.residencyTouched[touched];
                    frame.touched.assign(numSubs_, false);
                }
                writebackDirty(core, frame);
            }
        }
    }
}

// ---------------------------------------------------------------- //
// The differential case
// ---------------------------------------------------------------- //

namespace {

void
diffBusCounter(std::vector<std::string> &out, const char *field,
               std::uint64_t expected, std::uint64_t actual)
{
    if (expected != actual) {
        out.push_back(strfmt(
            "bus.%s: oracle=%llu engine=%llu", field,
            static_cast<unsigned long long>(expected),
            static_cast<unsigned long long>(actual)));
    }
}

void
diffBus(std::vector<std::string> &out, const CoherencyStats &expected,
        const CoherencyStats &actual)
{
    diffBusCounter(out, "busReads", expected.busReads,
                   actual.busReads);
    diffBusCounter(out, "busReadForOwnership",
                   expected.busReadForOwnership,
                   actual.busReadForOwnership);
    diffBusCounter(out, "busUpgrades", expected.busUpgrades,
                   actual.busUpgrades);
    diffBusCounter(out, "invalidations", expected.invalidations,
                   actual.invalidations);
    diffBusCounter(out, "cacheToCacheTransfers",
                   expected.cacheToCacheTransfers,
                   actual.cacheToCacheTransfers);
    diffBusCounter(out, "c2cWords", expected.c2cWords,
                   actual.c2cWords);
    diffBusCounter(out, "snoopWritebackWords",
                   expected.snoopWritebackWords,
                   actual.snoopWritebackWords);
}

void
diffResultDouble(std::vector<std::string> &out, const char *field,
                 double expected, double actual)
{
    // Exact: both sides run the same arithmetic over the same
    // integers (summarizeStats).
    if (expected != actual) {
        out.push_back(strfmt("sweep.%s: direct=%.17g routed=%.17g",
                             field, expected, actual));
    }
}

/** Compare the directly summarized system against the runSweep-routed
 *  result: the engine behind both is the same, so every field must be
 *  bit-identical. */
void
diffRoutedResult(std::vector<std::string> &out,
                 const SweepResult &direct, const SweepResult &routed,
                 bool multicore)
{
    if (direct.grossBytes != routed.grossBytes) {
        out.push_back(strfmt(
            "sweep.grossBytes: direct=%llu routed=%llu",
            static_cast<unsigned long long>(direct.grossBytes),
            static_cast<unsigned long long>(routed.grossBytes)));
    }
    diffResultDouble(out, "missRatio", direct.missRatio,
                     routed.missRatio);
    diffResultDouble(out, "warmMissRatio", direct.warmMissRatio,
                     routed.warmMissRatio);
    diffResultDouble(out, "trafficRatio", direct.trafficRatio,
                     routed.trafficRatio);
    diffResultDouble(out, "warmTrafficRatio", direct.warmTrafficRatio,
                     routed.warmTrafficRatio);
    diffResultDouble(out, "nibbleTrafficRatio",
                     direct.nibbleTrafficRatio,
                     routed.nibbleTrafficRatio);
    diffResultDouble(out, "warmNibbleTrafficRatio",
                     direct.warmNibbleTrafficRatio,
                     routed.warmNibbleTrafficRatio);
    diffResultDouble(out, "meanSubBlocksTouched",
                     direct.meanSubBlocksTouched,
                     routed.meanSubBlocksTouched);
    diffResultDouble(out, "neverReferencedFraction",
                     direct.neverReferencedFraction,
                     routed.neverReferencedFraction);
    if (!multicore)
        return;
    const CoherencySummary &a = direct.coherency;
    const CoherencySummary &b = routed.coherency;
    if (a.active != b.active || a.cores != b.cores ||
        a.busReads != b.busReads ||
        a.busReadForOwnership != b.busReadForOwnership ||
        a.busUpgrades != b.busUpgrades ||
        a.invalidations != b.invalidations ||
        a.cacheToCacheTransfers != b.cacheToCacheTransfers ||
        a.c2cWords != b.c2cWords ||
        a.snoopWritebackWords != b.snoopWritebackWords ||
        a.invalidationsPerKiloRef != b.invalidationsPerKiloRef ||
        a.coherenceTrafficRatio != b.coherenceTrafficRatio ||
        a.coreMissRatios != b.coreMissRatios) {
        out.push_back("sweep.coherency: direct and routed summaries "
                      "disagree");
    }
}

} // namespace

CoherenceCaseReport
runCoherencyCase(const ScenarioConfig &scenario,
                 const CacheConfig &grid_config,
                 const std::vector<MemRef> &refs,
                 const std::string &trace_name)
{
    CoherenceCaseReport report;

    CoherentSystem system(scenario, grid_config);
    for (const MemRef &ref : refs)
        system.access(ref);
    system.finalize();

    FlatSnoopOracle oracle(scenario, grid_config);
    oracle.run(refs);

    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        for (const std::string &diff :
             diffStats(oracle.coreStats(c), system.core(c).stats())) {
            report.diffs.push_back(strfmt("core%u %s", c,
                                          diff.c_str()));
        }
    }
    diffBus(report.diffs, oracle.bus(), system.bus());

    // Route the same triple through the public API: runSweep must
    // reach the same engine and summarize identically.
    SweepRequest request;
    request.traces.push_back(std::make_shared<const VectorTrace>(
        trace_name, refs));
    request.configs = {grid_config};
    request.scenario = scenario;
    request.wantAverage = false;
    const SweepReport routed = runSweep(request);
    diffRoutedResult(report.diffs,
                     summarizeCoherent(grid_config, system),
                     routed.perTrace.at(0).at(0),
                     scenario.multicore());

    return report;
}

// ---------------------------------------------------------------- //
// The fuzz loop
// ---------------------------------------------------------------- //

CoherenceFuzzCase
makeCoherenceFuzzCase(std::uint64_t case_seed,
                      std::size_t refs_per_case)
{
    CoherenceFuzzCase out;
    out.caseSeed = case_seed;
    Rng rng(case_seed);

    const std::uint32_t cores =
        2 + static_cast<std::uint32_t>(rng.below(3));
    const std::uint32_t word =
        1u << static_cast<std::uint32_t>(rng.below(3));
    const std::uint32_t sub =
        word << static_cast<std::uint32_t>(rng.below(3));
    // The engines reject one-byte blocks (no block bits to index
    // by), so the smallest drawn block is two bytes.
    const std::uint32_t block = std::max(
        2u, sub << static_cast<std::uint32_t>(rng.below(3)));

    // One MESI-subset design point; block geometry is fixed per case
    // (the bus requires it), capacity/associativity/replacement vary.
    // Associativity is 1, 2, 4, 8 or fully associative, clamped to
    // the block count, so the draw reaches every coherent-kernel
    // instantiation: the unrolled 1/2/4/8-way ones and the
    // runtime-assoc one (16 and 32 ways).
    const auto drawCore = [&rng, word, sub, block]() {
        const std::uint32_t blocks =
            4u << static_cast<std::uint32_t>(rng.below(4));
        CacheConfig config = makeConfig(blocks * block, block, sub, word);
        const std::uint32_t assoc_pick =
            static_cast<std::uint32_t>(rng.below(5));
        config.assoc =
            assoc_pick < 4 ? std::min(1u << assoc_pick, blocks) : blocks;
        config.write = WritePolicy::CopyBack;
        config.writeAllocate = true;
        config.fetch = FetchPolicy::Demand;
        static constexpr ReplacementPolicy kPolicies[] = {
            ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
            ReplacementPolicy::Random};
        config.replacement = kPolicies[rng.below(3)];
        config.randomSeed = rng.next();
        return config;
    };

    out.config = drawCore();
    out.scenario.cores = cores;
    if (rng.below(4) == 0) {
        // Asymmetric scenario: per-core shapes replace the grid.
        for (std::uint32_t c = 0; c < cores; ++c)
            out.scenario.coreConfigs.push_back(drawCore());
        out.config = out.scenario.coreConfigs.front();
    }

    if (rng.below(2) == 0) {
        // A scripted parallel workload (real sharing patterns).
        const auto kind =
            static_cast<ParallelWorkloadKind>(rng.below(3));
        ParallelWorkloadParams params;
        params.cores = cores;
        params.refsPerCore = std::max<std::uint64_t>(
            1, refs_per_case / cores);
        params.wordSize = word;
        params.seed = rng.next();
        out.trace = makeParallelTrace(kind, params);
    } else {
        // An adversarial single-cache trace with random core stamps:
        // heavy aliasing across cores, the protocol's stress test.
        TraceGen gen(rng.next());
        std::vector<MemRef> stamped =
            gen.make(refs_per_case, word)->refs();
        for (MemRef &ref : stamped)
            ref.core = static_cast<std::uint8_t>(rng.below(cores));
        out.trace = VectorTrace(strfmt("coherence-fuzz-%llx",
                                       static_cast<unsigned long long>(
                                           case_seed)),
                                std::move(stamped));
    }
    return out;
}

CoherenceFuzzSummary
runCoherenceFuzz(const CoherenceFuzzOptions &options)
{
    CoherenceFuzzSummary summary;
    Rng master(options.seed);
    for (std::uint64_t i = 0; i < options.cases; ++i) {
        const std::uint64_t case_seed = master.next();
        const CoherenceFuzzCase fuzz_case =
            makeCoherenceFuzzCase(case_seed, options.refsPerCase);
        const CoherenceCaseReport report = runCoherencyCase(
            fuzz_case.scenario, fuzz_case.config,
            fuzz_case.trace.refs(), fuzz_case.trace.name());
        ++summary.casesRun;
        if (options.out && options.verbose) {
            *options.out << strfmt(
                "case %llu seed=%llx %ux%s trace=%s refs=%zu: %s\n",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(case_seed),
                fuzz_case.scenario.cores,
                fuzz_case.config.shortName().c_str(),
                fuzz_case.trace.name().c_str(),
                fuzz_case.trace.size(),
                report.mismatch() ? "MISMATCH" : "ok");
        }
        if (report.mismatch()) {
            ++summary.mismatches;
            summary.failingCaseSeed = case_seed;
            summary.diffs = report.diffs;
            if (options.out) {
                *options.out << strfmt(
                    "coherence fuzz MISMATCH: case seed %llx "
                    "(%u cores, %s, %zu refs)\n",
                    static_cast<unsigned long long>(case_seed),
                    fuzz_case.scenario.cores,
                    fuzz_case.config.fullName().c_str(),
                    fuzz_case.trace.size());
                for (const std::string &diff : report.diffs)
                    *options.out << "  " << diff << "\n";
            }
            break;
        }
    }
    return summary;
}

} // namespace occsim
