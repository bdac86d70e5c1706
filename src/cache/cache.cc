#include "cache/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace occsim {

Cache::Cache(const CacheConfig &config)
    : geom_(config),
      assoc_(geom_.assoc()),
      numSubs_(geom_.subBlocksPerBlock()),
      wordsPerSub_(geom_.wordsPerSubBlock()),
      subBlockSize_(config.subBlockSize),
      fetch_(config.fetch),
      copyBack_(config.write == WritePolicy::CopyBack),
      writeAllocate_(config.writeAllocate),
      prefetchOnMiss_(config.fetch == FetchPolicy::PrefetchNextOnMiss),
      kernel_(selectKernel(fetch_, copyBack_, writeAllocate_,
                           config.replacement, assoc_,
                           /*record=*/true)),
      kernelWarm_(selectKernel(fetch_, copyBack_, writeAllocate_,
                               config.replacement, assoc_,
                               /*record=*/false)),
      repl_(config.replacement, geom_.numSets(), geom_.assoc(),
            config.randomSeed),
      stats_(geom_.subBlocksPerBlock(),
             geom_.subBlocksPerBlock() * geom_.wordsPerSubBlock()),
      tags_(geom_.numBlocks(), kNoTag),
      meta_(geom_.numBlocks()),
      everFilled_(geom_.numBlocks(), 0)
{
}

template <std::uint32_t A>
int
Cache::findWay(std::uint32_t set, Addr block_addr) const
{
    const std::uint32_t assoc = A != 0 ? A : assoc_;
    const Addr *tags =
        tags_.data() + static_cast<std::size_t>(set) * assoc;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        if (tags[way] == block_addr)
            return static_cast<int>(way);
    }
    return -1;
}

void
Cache::emitBurst(std::uint32_t sub_blocks, bool counted, bool cold,
                 std::uint32_t redundant_sub_blocks)
{
    const std::uint32_t words = sub_blocks * wordsPerSub_;
    if (counted) {
        stats_.recordBurst(words, cold,
                           redundant_sub_blocks * wordsPerSub_);
    } else {
        stats_.recordWriteBurst(words);
    }
}

template <FetchPolicy F, bool Record>
void
Cache::fetchIntoSpec(std::uint32_t frame_index,
                     std::uint32_t sub_index, bool counted, bool cold)
{
    const std::uint32_t num_subs = numSubs_;
    std::uint64_t &valid = meta_[frame_index].valid;
    std::uint64_t &ever = everFilled_[frame_index];

    if constexpr (F == FetchPolicy::Demand ||
                  F == FetchPolicy::PrefetchNextOnMiss) {
        valid |= (std::uint64_t{1} << sub_index);
        ever |= (std::uint64_t{1} << sub_index);
        if constexpr (Record)
            emitBurst(1, counted, cold, 0);
    } else if constexpr (F == FetchPolicy::LoadForward) {
        // One burst covering the target and every subsequent
        // sub-block, re-fetching resident ones (redundant loads).
        const std::uint32_t span = num_subs - sub_index;
        const std::uint64_t span_mask =
            (span == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << span) - 1))
            << sub_index;
        if constexpr (Record) {
            const std::uint32_t redundant =
                static_cast<std::uint32_t>(
                    std::popcount(valid & span_mask));
            emitBurst(span, counted, cold, redundant);
        }
        valid |= span_mask;
        ever |= span_mask;
    } else {
        // Fetch only the invalid sub-blocks at or after the target,
        // as one burst per contiguous invalid run.
        std::uint32_t run = 0;
        for (std::uint32_t i = sub_index; i < num_subs; ++i) {
            const std::uint64_t bit = std::uint64_t{1} << i;
            if (valid & bit) {
                if (run != 0) {
                    if constexpr (Record)
                        emitBurst(run, counted, cold, 0);
                    run = 0;
                }
            } else {
                valid |= bit;
                ever |= bit;
                ++run;
            }
        }
        if (run != 0) {
            if constexpr (Record)
                emitBurst(run, counted, cold, 0);
        }
    }
}

void
Cache::fetchInto(std::uint32_t frame_index, std::uint32_t sub_index,
                 bool counted, bool cold)
{
    switch (fetch_) {
      case FetchPolicy::Demand:
        fetchIntoSpec<FetchPolicy::Demand>(frame_index, sub_index,
                                           counted, cold);
        break;
      case FetchPolicy::PrefetchNextOnMiss:
        fetchIntoSpec<FetchPolicy::PrefetchNextOnMiss>(
            frame_index, sub_index, counted, cold);
        break;
      case FetchPolicy::LoadForward:
        fetchIntoSpec<FetchPolicy::LoadForward>(frame_index, sub_index,
                                                counted, cold);
        break;
      case FetchPolicy::LoadForwardOptimized:
        fetchIntoSpec<FetchPolicy::LoadForwardOptimized>(
            frame_index, sub_index, counted, cold);
        break;
    }
}

void
Cache::writebackDirty(FrameMeta &meta)
{
    if (meta.dirty != 0) {
        stats_.recordWriteback(
            static_cast<std::uint32_t>(std::popcount(meta.dirty)) *
            wordsPerSub_);
        meta.dirty = 0;
    }
}

template <ReplacementPolicy R, std::uint32_t A, bool Record>
std::uint32_t
Cache::claimVictimSpec(std::uint32_t set)
{
    const std::uint32_t assoc = A != 0 ? A : assoc_;
    const std::size_t base = static_cast<std::size_t>(set) * assoc;
    const Addr *tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (tags[w] == kNoTag)
            return w;
    }
    const std::uint32_t victim = repl_.victimSpec<R, A>(set);
    FrameMeta &meta = meta_[base + victim];
    if constexpr (Record) {
        stats_.recordResidency(
            static_cast<std::uint32_t>(std::popcount(meta.touched)));
        writebackDirty(meta);
    } else {
        // Same end state without the residency/write-back stats.
        meta.dirty = 0;
    }
    return victim;
}

template <bool Record>
std::uint32_t
Cache::claimVictim(std::uint32_t set)
{
    switch (repl_.policy()) {
      case ReplacementPolicy::LRU:
        return claimVictimSpec<ReplacementPolicy::LRU, 0, Record>(set);
      case ReplacementPolicy::FIFO:
        return claimVictimSpec<ReplacementPolicy::FIFO, 0, Record>(
            set);
      case ReplacementPolicy::Random:
        return claimVictimSpec<ReplacementPolicy::Random, 0, Record>(
            set);
    }
    panic("bad replacement policy %d",
          static_cast<int>(repl_.policy()));
}

AccessOutcome
Cache::access(const MemRef &ref)
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(ref.addr));
    const Addr block_addr = geom_.blockAddr(ref.addr);
    const std::uint32_t sub_index = geom_.subBlockIndex(ref.addr);
    const std::uint64_t sub_bit = std::uint64_t{1} << sub_index;
    const bool is_write = ref.isWrite();
    const bool counted = !is_write;
    const bool is_ifetch = ref.isInstruction();

    const int way = findWay(set, block_addr);

    if (way >= 0) {
        const std::uint32_t frame_index =
            set * assoc_ + static_cast<std::uint32_t>(way);
        FrameMeta &meta = meta_[frame_index];
        repl_.onAccess(set, static_cast<std::uint32_t>(way));
        meta.touched |= sub_bit;
        if (meta.valid & sub_bit) {
            if (meta.prefetched & sub_bit) {
                stats_.recordUsefulPrefetch();
                meta.prefetched &= ~sub_bit;
            }
            if (counted) {
                stats_.recordHit(is_ifetch);
            } else {
                stats_.recordWrite(true);
                if (copyBack_)
                    meta.dirty |= sub_bit;
                else
                    stats_.recordStoreTraffic(1);
            }
            return AccessOutcome::Hit;
        }
        // Sub-block miss: tag matches but the word is not resident.
        const bool cold = (everFilled_[frame_index] & sub_bit) == 0;
        if (counted)
            stats_.recordMiss(is_ifetch, false, cold);
        else
            stats_.recordWrite(false);
        fetchInto(frame_index, sub_index, counted, cold);
        meta.prefetched &= ~sub_bit;
        if (is_write) {
            if (copyBack_)
                meta.dirty |= sub_bit;
            else
                stats_.recordStoreTraffic(1);
        }
        if (prefetchOnMiss_)
            prefetchSequential(ref.addr);
        return AccessOutcome::SubBlockMiss;
    }

    // Block miss: allocate a frame.
    if (is_write && !writeAllocate_) {
        stats_.recordWrite(false);
        stats_.recordStoreTraffic(1);
        return AccessOutcome::BlockMiss;
    }

    const std::uint32_t victim_way = claimVictim(set);

    const std::uint32_t frame_index = set * assoc_ + victim_way;
    const bool cold = (everFilled_[frame_index] & sub_bit) == 0;
    if (counted)
        stats_.recordMiss(is_ifetch, true, cold);
    else
        stats_.recordWrite(false);

    tags_[frame_index] = block_addr;
    FrameMeta &meta = meta_[frame_index];
    meta.valid = 0;
    meta.touched = sub_bit;
    meta.dirty = 0;
    meta.prefetched = 0;
    repl_.onFill(set, victim_way);
    fetchInto(frame_index, sub_index, counted, cold);
    if (is_write) {
        if (copyBack_)
            meta.dirty |= sub_bit;
        else
            stats_.recordStoreTraffic(1);
    }
    if (prefetchOnMiss_)
        prefetchSequential(ref.addr);
    return AccessOutcome::BlockMiss;
}

template <FetchPolicy F, bool CopyBack, bool WriteAllocate,
          ReplacementPolicy R, std::uint32_t A, bool Record>
void
Cache::accessSpec(Addr addr, bool is_write, bool is_ifetch)
{
    const std::uint32_t assoc = A != 0 ? A : assoc_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    const Addr block_addr = geom_.blockAddr(addr);
    const std::uint32_t sub_index = geom_.subBlockIndex(addr);
    const std::uint64_t sub_bit = std::uint64_t{1} << sub_index;
    const bool counted = !is_write;

    const int way = findWay<A>(set, block_addr);

    if (way >= 0) {
        const std::uint32_t frame_index =
            set * assoc + static_cast<std::uint32_t>(way);
        FrameMeta &meta = meta_[frame_index];
        repl_.onAccessSpec<R, A>(set,
                                 static_cast<std::uint32_t>(way));
        meta.touched |= sub_bit;
        if (meta.valid & sub_bit) {
            if (meta.prefetched & sub_bit) {
                if constexpr (Record)
                    stats_.recordUsefulPrefetch();
                meta.prefetched &= ~sub_bit;
            }
            if (counted) {
                if constexpr (Record)
                    stats_.recordHit(is_ifetch);
            } else {
                if constexpr (Record)
                    stats_.recordWrite(true);
                if constexpr (CopyBack)
                    meta.dirty |= sub_bit;
                else if constexpr (Record)
                    stats_.recordStoreTraffic(1);
            }
            return;
        }
        // Sub-block miss: tag matches but the word is not resident.
        const bool cold = (everFilled_[frame_index] & sub_bit) == 0;
        if constexpr (Record) {
            if (counted)
                stats_.recordMiss(is_ifetch, false, cold);
            else
                stats_.recordWrite(false);
        }
        fetchIntoSpec<F, Record>(frame_index, sub_index, counted,
                                 cold);
        meta.prefetched &= ~sub_bit;
        if (is_write) {
            if constexpr (CopyBack)
                meta.dirty |= sub_bit;
            else if constexpr (Record)
                stats_.recordStoreTraffic(1);
        }
        if constexpr (F == FetchPolicy::PrefetchNextOnMiss)
            prefetchSequential<Record>(addr);
        return;
    }

    // Block miss: allocate a frame.
    if constexpr (!WriteAllocate) {
        if (is_write) {
            if constexpr (Record) {
                stats_.recordWrite(false);
                stats_.recordStoreTraffic(1);
            }
            return;
        }
    }

    const std::uint32_t victim_way =
        claimVictimSpec<R, A, Record>(set);

    const std::uint32_t frame_index = set * assoc + victim_way;
    const bool cold = (everFilled_[frame_index] & sub_bit) == 0;
    if constexpr (Record) {
        if (counted)
            stats_.recordMiss(is_ifetch, true, cold);
        else
            stats_.recordWrite(false);
    }

    tags_[frame_index] = block_addr;
    FrameMeta &meta = meta_[frame_index];
    meta.valid = 0;
    meta.touched = sub_bit;
    meta.dirty = 0;
    meta.prefetched = 0;
    repl_.onFillSpec<R, A>(set, victim_way);
    fetchIntoSpec<F, Record>(frame_index, sub_index, counted, cold);
    if (is_write) {
        if constexpr (CopyBack)
            meta.dirty |= sub_bit;
        else if constexpr (Record)
            stats_.recordStoreTraffic(1);
    }
    if constexpr (F == FetchPolicy::PrefetchNextOnMiss)
        prefetchSequential<Record>(addr);
}

template <FetchPolicy F, bool CopyBack, bool WriteAllocate,
          ReplacementPolicy R, std::uint32_t A, bool Record>
void
Cache::replayLoop(const PackedRecord *refs, std::size_t n)
{
    // Pull the set metadata of a record a few iterations ahead toward
    // the core while the current record is priced: on large set
    // counts the tag read is the dominant cache-missing load of the
    // loop. Distance 8 covers the typical hit-path latency without
    // running past the chunk.
    constexpr std::size_t kPrefetchDistance = 8;
    const std::uint32_t assoc = A != 0 ? A : assoc_;
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchDistance < n) {
            const Addr ahead = refs[i + kPrefetchDistance].addr();
            const std::size_t frame =
                static_cast<std::size_t>(geom_.setIndex(ahead)) *
                assoc;
            OCCSIM_PREFETCH_READ(tags_.data() + frame);
            OCCSIM_PREFETCH_READ(meta_.data() + frame);
        }
        const PackedRecord rec = refs[i];
        accessSpec<F, CopyBack, WriteAllocate, R, A, Record>(
            rec.addr(), rec.isWrite(), rec.isInstruction());
    }
}

Cache::ReplayKernel
Cache::selectKernel(FetchPolicy fetch, bool copy_back,
                    bool write_allocate, ReplacementPolicy repl,
                    std::uint32_t assoc, bool record)
{
    const auto pick_write =
        [copy_back, write_allocate,
         record]<FetchPolicy F, ReplacementPolicy R,
                 std::uint32_t A>() {
            const auto pick_record = [record]<bool CB, bool WA>() {
                return record
                           ? &Cache::replayLoop<F, CB, WA, R, A, true>
                           : &Cache::replayLoop<F, CB, WA, R, A,
                                                false>;
            };
            if (copy_back) {
                return write_allocate
                           ? pick_record
                                 .template operator()<true, true>()
                           : pick_record
                                 .template operator()<true, false>();
            }
            return write_allocate
                       ? pick_record.template operator()<false, true>()
                       : pick_record
                             .template operator()<false, false>();
        };
    // Associativities 1/2/4/8 (the paper's grid) get fully unrolled
    // way scans; anything else falls back to the runtime-assoc
    // kernel (A = 0).
    const auto pick_assoc =
        [&pick_write, assoc]<FetchPolicy F, ReplacementPolicy R>() {
            switch (assoc) {
              case 1:
                return pick_write.operator()<F, R, 1u>();
              case 2:
                return pick_write.operator()<F, R, 2u>();
              case 4:
                return pick_write.operator()<F, R, 4u>();
              case 8:
                return pick_write.operator()<F, R, 8u>();
              default:
                return pick_write.operator()<F, R, 0u>();
            }
        };
    const auto pick = [&pick_assoc, repl]<FetchPolicy F>() {
        switch (repl) {
          case ReplacementPolicy::LRU:
            return pick_assoc
                .operator()<F, ReplacementPolicy::LRU>();
          case ReplacementPolicy::FIFO:
            return pick_assoc
                .operator()<F, ReplacementPolicy::FIFO>();
          case ReplacementPolicy::Random:
            return pick_assoc
                .operator()<F, ReplacementPolicy::Random>();
        }
        panic("bad replacement policy %d", static_cast<int>(repl));
    };
    switch (fetch) {
      case FetchPolicy::Demand:
        return pick.operator()<FetchPolicy::Demand>();
      case FetchPolicy::LoadForward:
        return pick.operator()<FetchPolicy::LoadForward>();
      case FetchPolicy::LoadForwardOptimized:
        return pick.operator()<FetchPolicy::LoadForwardOptimized>();
      case FetchPolicy::PrefetchNextOnMiss:
        return pick.operator()<FetchPolicy::PrefetchNextOnMiss>();
    }
    panic("bad fetch policy %d", static_cast<int>(fetch));
}

void
Cache::replayPacked(const PackedRecord *refs, std::size_t n)
{
    (this->*kernel_)(refs, n);
}

void
Cache::warmPacked(const PackedRecord *refs, std::size_t n)
{
    (this->*kernelWarm_)(refs, n);
}

void
Cache::seedWarmState(const Addr *mru, std::uint32_t src_stride)
{
    const std::uint32_t num_sets = geom_.numSets();
    const std::uint32_t assoc = assoc_;
    const std::uint64_t all_subs =
        numSubs_ == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << numSubs_) - 1;
    occsim_assert(src_stride >= assoc,
                  "checkpoint rows shallower (%u) than assoc %u",
                  src_stride, assoc);
    for (std::uint32_t set = 0; set < num_sets; ++set) {
        const Addr *row =
            mru + static_cast<std::size_t>(set) * src_stride;
        const std::size_t base =
            static_cast<std::size_t>(set) * assoc;
        std::uint32_t filled = 0;
        for (std::uint32_t way = 0; way < assoc; ++way) {
            const Addr blk = row[way];
            tags_[base + way] = blk;
            if (blk != kNoTag) {
                meta_[base + way] =
                    FrameMeta{all_subs, 0, 0, 0};
                everFilled_[base + way] = all_subs;
                ++filled;
            } else {
                meta_[base + way] = FrameMeta{};
                everFilled_[base + way] = 0;
            }
        }
        repl_.seedMruOrder(set, filled);
    }
}

template <bool Record>
void
Cache::prefetchSequential(Addr miss_addr)
{
    const Addr target = miss_addr + subBlockSize_;
    if (target < miss_addr) {
        // The missed sub-block is the last one of the address space:
        // there is no sequential successor, so nothing is prefetched
        // (rather than wrapping around to address 0 and polluting
        // set 0 with a bogus block).
        return;
    }
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(target));
    const Addr block_addr = geom_.blockAddr(target);
    const std::uint32_t sub_index = geom_.subBlockIndex(target);
    const std::uint64_t sub_bit = std::uint64_t{1} << sub_index;
    const std::uint32_t words = wordsPerSub_;

    const int way = findWay(set, block_addr);
    if (way >= 0) {
        const std::uint32_t frame_index =
            set * assoc_ + static_cast<std::uint32_t>(way);
        FrameMeta &meta = meta_[frame_index];
        if (meta.valid & sub_bit)
            return;  // already resident, nothing to move
        meta.valid |= sub_bit;
        meta.prefetched |= sub_bit;
        everFilled_[frame_index] |= sub_bit;
        stats_.recordPrefetch(words);
        return;
    }

    // Allocate a frame for the prefetched block (Smith's sequential
    // prefetch allocates; this is where pollution can occur).
    const std::uint32_t victim_way = claimVictim(set);
    const std::uint32_t frame_index = set * assoc_ + victim_way;
    tags_[frame_index] = block_addr;
    FrameMeta &meta = meta_[frame_index];
    meta.valid = sub_bit;
    meta.touched = 0;
    meta.dirty = 0;
    meta.prefetched = sub_bit;
    everFilled_[frame_index] |= sub_bit;
    repl_.onFill(set, victim_way);
    stats_.recordPrefetch(words);
}

std::uint64_t
Cache::run(TraceSource &source, std::uint64_t max_refs)
{
    MemRef ref;
    std::uint64_t count = 0;
    while ((max_refs == 0 || count < max_refs) && source.next(ref)) {
        access(ref);
        ++count;
    }
    finalizeResidencies();
    return count;
}

void
Cache::finalizeResidencies()
{
    for (std::size_t f = 0; f < tags_.size(); ++f) {
        FrameMeta &meta = meta_[f];
        if (framePresent(f) && meta.touched != 0) {
            stats_.recordResidency(static_cast<std::uint32_t>(
                std::popcount(meta.touched)));
            // Avoid double counting if called repeatedly.
            meta.touched = 0;
        }
        writebackDirty(meta);
    }
}

void
Cache::flush()
{
    ++flushes_;
    for (std::size_t f = 0; f < tags_.size(); ++f) {
        FrameMeta &meta = meta_[f];
        if (framePresent(f) && meta.touched != 0) {
            stats_.recordResidency(static_cast<std::uint32_t>(
                std::popcount(meta.touched)));
        }
        writebackDirty(meta);
        tags_[f] = kNoTag;
        meta = FrameMeta{};
    }
    // Replacement state restarts too; everFilled_ is kept so that
    // re-fetches after the flush are charged as ordinary (warm)
    // misses, not cold-start ones.
    repl_ = ReplacementState(config().replacement, geom_.numSets(),
                             geom_.assoc(), config().randomSeed);
}

void
Cache::reset()
{
    for (std::size_t f = 0; f < tags_.size(); ++f) {
        tags_[f] = kNoTag;
        meta_[f] = FrameMeta{};
    }
    for (auto &mask : everFilled_)
        mask = 0;
    flushes_ = 0;
    stats_.reset();
    repl_ = ReplacementState(config().replacement, geom_.numSets(),
                             geom_.assoc(), config().randomSeed);
}

bool
Cache::isResident(Addr addr) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    const int way = findWay(set, geom_.blockAddr(addr));
    if (way < 0)
        return false;
    return (meta_[set * assoc_ + static_cast<std::uint32_t>(way)]
                .valid &
            (std::uint64_t{1} << geom_.subBlockIndex(addr))) != 0;
}

bool
Cache::isBlockResident(Addr addr) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    return findWay(set, geom_.blockAddr(addr)) >= 0;
}

std::uint64_t
Cache::validMask(Addr addr) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    const int way = findWay(set, geom_.blockAddr(addr));
    return way < 0
               ? 0
               : meta_[set * assoc_ + static_cast<std::uint32_t>(way)]
                     .valid;
}

} // namespace occsim
