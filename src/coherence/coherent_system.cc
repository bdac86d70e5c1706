#include "coherence/coherent_system.hh"

#include "util/logging.hh"

namespace occsim {

namespace {

// The fields the kernel reads, from either record type.

std::uint32_t
coreOf(const MemRef &ref)
{
    return ref.core;
}

std::uint32_t
coreOf(const PackedRecord &rec)
{
    return rec.core();
}

Addr
addrOf(const MemRef &ref)
{
    return ref.addr;
}

Addr
addrOf(const PackedRecord &rec)
{
    return rec.addr();
}

} // namespace

template <std::uint32_t A>
bool
CoherentSystem::snoopRead(std::uint32_t requester, Addr block_addr)
{
    bool shared = false;
    for (std::uint32_t p = 0; p < numCores(); ++p) {
        if (p == requester)
            continue;
        CoherentCache &peer = caches_[p];
        const std::uint32_t set = static_cast<std::uint32_t>(
            peer.geom_.setIndex(block_addr << peer.geom_.blockBits()));
        const int way = peer.findWay<A>(set, block_addr);
        if (way < 0)
            continue;
        shared = true;
        const std::size_t frame =
            static_cast<std::size_t>(set) * (A != 0 ? A : peer.assoc_) +
            static_cast<std::uint32_t>(way);
        const MesiState state = peer.mesi_[frame];
        if (state == MesiState::Modified) {
            // The owner flushes its dirty words to memory and
            // supplies the requested data cache-to-cache.
            const std::uint32_t words = peer.writebackDirty(frame);
            bus_.snoopWritebackWords += words;
            ++bus_.cacheToCacheTransfers;
            bus_.c2cWords += peer.wordsPerSub_;
        }
        peer.mesi_[frame] =
            mesiNext(state, MesiEvent::SnoopRead, false);
    }
    return shared;
}

template <std::uint32_t A, bool Upgrade>
void
CoherentSystem::snoopInvalidate(std::uint32_t requester,
                                Addr block_addr)
{
    for (std::uint32_t p = 0; p < numCores(); ++p) {
        if (p == requester)
            continue;
        CoherentCache &peer = caches_[p];
        const std::uint32_t set = static_cast<std::uint32_t>(
            peer.geom_.setIndex(block_addr << peer.geom_.blockBits()));
        const int way = peer.findWay<A>(set, block_addr);
        if (way < 0)
            continue;
        const std::size_t frame =
            static_cast<std::size_t>(set) * (A != 0 ? A : peer.assoc_) +
            static_cast<std::uint32_t>(way);
        const MesiState state = peer.mesi_[frame];
        // Drive the transition table first: it panics on the
        // protocol-violating combinations (e.g. an upgrade observed
        // by an owner), which is exactly the check we want here.
        const MesiState next = mesiNext(
            state,
            Upgrade ? MesiEvent::SnoopUpgrade : MesiEvent::SnoopReadX,
            false);
        occsim_assert(next == MesiState::Invalid,
                      "snoop invalidation left state %s",
                      mesiStateName(next));
        if (state == MesiState::Modified) {
            const std::uint32_t words = peer.writebackDirty(frame);
            bus_.snoopWritebackWords += words;
            ++bus_.cacheToCacheTransfers;
            bus_.c2cWords += peer.wordsPerSub_;
        }
        peer.invalidateFrame(frame);
        ++bus_.invalidations;
    }
}

template <ReplacementPolicy R, std::uint32_t A>
void
CoherentSystem::accessSpec(std::uint32_t core, Addr addr,
                           bool is_write, bool is_ifetch)
{
    CoherentCache &cache = caches_[core];
    const std::uint32_t assoc = A != 0 ? A : cache.assoc_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(cache.geom_.setIndex(addr));
    const Addr block_addr = cache.geom_.blockAddr(addr);
    const std::uint32_t sub_index = cache.geom_.subBlockIndex(addr);
    const std::uint64_t sub_bit = std::uint64_t{1} << sub_index;
    const bool counted = !is_write;

    const int way = cache.findWay<A>(set, block_addr);

    if (way >= 0) {
        const std::size_t frame =
            static_cast<std::size_t>(set) * assoc +
            static_cast<std::uint32_t>(way);
        CoherentCache::FrameMeta &meta = cache.meta_[frame];
        cache.touchWay<R, A>(set, static_cast<std::uint32_t>(way));
        meta.touched |= sub_bit;
        const MesiState state = cache.mesi_[frame];
        if (meta.valid & sub_bit) {
            if (counted) {
                cache.stats_.recordHit(is_ifetch);
                cache.mesi_[frame] =
                    mesiNext(state, MesiEvent::LocalRead, false);
                return;
            }
            cache.stats_.recordWrite(true);
            if (state == MesiState::Shared) {
                // Address-only upgrade: peers drop their copies, no
                // data moves.
                ++bus_.busUpgrades;
                snoopInvalidate<A, /*Upgrade=*/true>(core, block_addr);
            }
            cache.mesi_[frame] =
                mesiNext(state, MesiEvent::LocalWrite, false);
            meta.dirty |= sub_bit;
            return;
        }
        // Sub-block miss on a held tag: the block's coherency state
        // is already settled (no peer can hold it Modified while we
        // hold the tag), so the fill is a plain bus read — plus an
        // ownership change when a write finds the block Shared.
        const bool cold = (cache.everFilled_[frame] & sub_bit) == 0;
        if (counted) {
            cache.stats_.recordMiss(is_ifetch, false, cold);
            ++bus_.busReads;
            cache.mesi_[frame] =
                mesiNext(state, MesiEvent::LocalRead, false);
        } else {
            cache.stats_.recordWrite(false);
            if (state == MesiState::Shared) {
                ++bus_.busReadForOwnership;
                snoopInvalidate<A, /*Upgrade=*/false>(core,
                                                      block_addr);
            } else {
                ++bus_.busReads;
            }
            cache.mesi_[frame] =
                mesiNext(state, MesiEvent::LocalWrite, false);
        }
        cache.fillSub(frame, sub_bit, counted, cold);
        if (is_write)
            meta.dirty |= sub_bit;
        return;
    }

    // Block miss: allocate a frame (write-allocate is part of the
    // MESI subset, so writes always allocate).
    const std::uint32_t victim_way = cache.claimVictim<R, A>(set);
    const std::size_t frame =
        static_cast<std::size_t>(set) * assoc + victim_way;
    const bool cold = (cache.everFilled_[frame] & sub_bit) == 0;
    if (counted)
        cache.stats_.recordMiss(is_ifetch, true, cold);
    else
        cache.stats_.recordWrite(false);

    cache.tags_[frame] = block_addr;
    CoherentCache::FrameMeta &meta = cache.meta_[frame];
    meta.valid = 0;
    meta.touched = sub_bit;
    meta.dirty = 0;
    cache.fillWay<R, A>(set, victim_way);

    if (counted) {
        ++bus_.busReads;
        const bool shared = snoopRead<A>(core, block_addr);
        cache.mesi_[frame] = mesiNext(MesiState::Invalid,
                                      MesiEvent::LocalRead, shared);
    } else {
        ++bus_.busReadForOwnership;
        snoopInvalidate<A, /*Upgrade=*/false>(core, block_addr);
        cache.mesi_[frame] = mesiNext(MesiState::Invalid,
                                      MesiEvent::LocalWrite, false);
    }
    cache.fillSub(frame, sub_bit, counted, cold);
    if (is_write)
        meta.dirty |= sub_bit;
}

template <ReplacementPolicy R, std::uint32_t A, class Rec>
void
CoherentSystem::replayLoop(const Rec *refs, std::size_t n)
{
    const std::uint32_t cores = numCores();
    for (std::size_t i = 0; i < n; ++i) {
        const Rec &rec = refs[i];
        // A trace stamped for at most this many cores needs no
        // division.
        const std::uint32_t stamped = coreOf(rec);
        const std::uint32_t core =
            stamped < cores ? stamped : stamped % cores;
        accessSpec<R, A>(core, addrOf(rec), rec.isWrite(),
                         rec.isInstruction());
    }
}

template <class Rec>
CoherentSystem::ReplayKernel<Rec>
CoherentSystem::selectKernel(ReplacementPolicy repl,
                             std::uint32_t assoc)
{
    constexpr ReplacementPolicy kRuntime = CoherentCache::kRuntimePolicy;
    if (repl == kRuntime)
        return &CoherentSystem::replayLoop<kRuntime, 0u, Rec>;
    // Associativities 1/2/4/8 get fully unrolled way scans; anything
    // else takes the runtime-assoc instantiation (A = 0).
    const auto pick_assoc = [assoc]<ReplacementPolicy R>() {
        switch (assoc) {
          case 1:
            return &CoherentSystem::replayLoop<R, 1u, Rec>;
          case 2:
            return &CoherentSystem::replayLoop<R, 2u, Rec>;
          case 4:
            return &CoherentSystem::replayLoop<R, 4u, Rec>;
          case 8:
            return &CoherentSystem::replayLoop<R, 8u, Rec>;
          default:
            return &CoherentSystem::replayLoop<R, 0u, Rec>;
        }
    };
    switch (repl) {
      case ReplacementPolicy::LRU:
        return pick_assoc.template operator()<ReplacementPolicy::LRU>();
      case ReplacementPolicy::FIFO:
        return pick_assoc.template operator()<ReplacementPolicy::FIFO>();
      case ReplacementPolicy::Random:
        return pick_assoc
            .template operator()<ReplacementPolicy::Random>();
    }
    panic("bad replacement policy %d", static_cast<int>(repl));
}

CoherentSystem::CoherentSystem(const ScenarioConfig &scenario,
                               const CacheConfig &grid_config)
{
    occsim_assert(scenario.cores >= 1 &&
                      scenario.cores <= PackedRecord::kMaxCores,
                  "scenario core count %u out of range",
                  scenario.cores);
    caches_.reserve(scenario.cores);
    for (std::uint32_t c = 0; c < scenario.cores; ++c) {
        caches_.emplace_back(
            scenarioCoreConfig(scenario, grid_config, c));
    }

    // The kernel follows from the cores' shapes: a shared (policy,
    // associativity) gets the instantiation specialized on both,
    // anything else the runtime-shape one.
    const ReplacementPolicy policy = caches_[0].config().replacement;
    const std::uint32_t assoc = caches_[0].assoc_;
    bool uniform = true;
    for (const CoherentCache &cache : caches_) {
        uniform = uniform && cache.config().replacement == policy &&
                  cache.assoc_ == assoc;
    }
    const ReplacementPolicy kernel_policy =
        uniform ? policy : CoherentCache::kRuntimePolicy;
    const std::uint32_t kernel_assoc = uniform ? assoc : 0;
    generic_ = !(kernel_assoc == 1 || kernel_assoc == 2 ||
                 kernel_assoc == 4 || kernel_assoc == 8);
    kernel_ = selectKernel<MemRef>(kernel_policy, kernel_assoc);
    kernelPacked_ =
        selectKernel<PackedRecord>(kernel_policy, kernel_assoc);
}

std::uint64_t
CoherentSystem::run(TraceSource &source, std::uint64_t max_refs)
{
    MemRef ref;
    std::uint64_t count = 0;
    while ((max_refs == 0 || count < max_refs) && source.next(ref)) {
        access(ref);
        ++count;
    }
    finalize();
    return count;
}

void
CoherentSystem::finalize()
{
    for (CoherentCache &cache : caches_)
        cache.finalizeResidencies();
}

} // namespace occsim
