#include "multi/fused_replay.hh"

#include <algorithm>
#include <bit>

#include "cache/cache_geometry.hh"
#include "cache/replacement.hh"
#include "multi/shard_replay.hh"
#include "obs/telemetry.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace occsim {

bool
fusedEligible(const CacheConfig &config)
{
    return config.replacement != ReplacementPolicy::Random &&
           config.fetch != FetchPolicy::PrefetchNextOnMiss &&
           config.partition == CachePartition::Unified;
}

FusedKey
fusedKeyOf(const CacheConfig &config)
{
    occsim_assert(fusedEligible(config),
                  "fused key of an ineligible config (%s)",
                  config.fullName().c_str());
    const CacheGeometry geom(config);
    FusedKey key;
    key.numSets = geom.numSets();
    key.assoc = geom.assoc();
    key.blockSize = config.blockSize;
    key.replacement = config.replacement;
    key.write = config.write;
    key.writeAllocate = config.writeAllocate;
    return key;
}

std::vector<std::vector<std::size_t>>
fusedGroups(const std::vector<CacheConfig> &configs,
            const std::vector<std::size_t> &candidates)
{
    std::vector<std::vector<std::size_t>> groups;
    std::vector<FusedKey> keys;
    for (const std::size_t i : candidates) {
        if (!fusedEligible(configs[i]))
            continue;
        const FusedKey key = fusedKeyOf(configs[i]);
        std::size_t g = groups.size();
        for (std::size_t k = 0; k < keys.size(); ++k) {
            // A pass addresses its members through one 64-bit config
            // bitmask (the grain-validity planes), so a key with more
            // than kMaxGroupConfigs members splits into several
            // groups — each still a valid fused pass on its own.
            if (keys[k] == key &&
                groups[k].size() < kMaxGroupConfigs) {
                g = k;
                break;
            }
        }
        if (g == groups.size()) {
            keys.push_back(key);
            groups.emplace_back();
        }
        groups[g].push_back(i);
    }
    return groups;
}

/**
 * One shard's fused state: the shared tag array + replacement order,
 * and per (frame, config) the 64-bit sub-block mask planes plus
 * per-config statistics. The kernel is templated on the group-level
 * policies (replacement, write, write-allocate) and the
 * associativity, mirroring Cache::replayLoop; only the per-config
 * fetch policy stays a runtime branch, taken solely on miss paths.
 *
 * Three layout/accounting choices keep the dominant path (a
 * reference whose sub-block is valid in every lane) to a few
 * instructions regardless of group size:
 *
 *  - The touched and dirty masks evolve identically for every config
 *    sharing a sub-block size: touched records which sub-blocks were
 *    referenced and dirty which were written, and both are reset by
 *    block-level events the whole group shares. They are stored once
 *    per distinct sub-block size ("class"), not per config.
 *  - The per-config valid masks (fetch policies validate different
 *    spans) are mirrored into per-(frame, grain) bitmasks over the
 *    group's members, where a grain is the group's FINEST sub-block
 *    size: bit c of grainValid_[frame][g] says whether config c's
 *    sub-block containing grain g is valid. The hit path tests all
 *    lanes with one load (~grainValid & allMask_ == 0); only the
 *    missing lanes — usually none — take the per-config slow path.
 *    The mirror is updated exclusively on miss paths, where the
 *    per-config valid/ever masks already live.
 *  - Counters that increment identically for every config on every
 *    reference — accesses, ifetch accesses, write accesses, and (for
 *    write-through) store words — are tallied ONCE per pass and
 *    bulk-added to each config's CacheStats at finalize
 *    (addUniformAccesses); the lanes record only the miss-side
 *    counters, which genuinely depend on the per-config masks. The
 *    totals are integer sums either way, so the derived doubles stay
 *    bit-identical to per-reference recording.
 */
class FusedReplay::Pass
{
  public:
    explicit Pass(const std::vector<CacheConfig> &configs)
    {
        occsim_assert(configs.size() <= kMaxGroupConfigs,
                      "fused pass limited to %zu configs, got %zu",
                      kMaxGroupConfigs, configs.size());
        const CacheGeometry geom(configs.front());
        numSets_ = geom.numSets();
        assoc_ = geom.assoc();
        blockBits_ = geom.blockBits();
        setMask_ = numSets_ - 1;
        blockMask_ = configs.front().blockSize - 1;
        copyBack_ =
            configs.front().write == WritePolicy::CopyBack;
        writeAllocate_ = configs.front().writeAllocate;
        numConfigs_ = static_cast<std::uint32_t>(configs.size());
        allMask_ = numConfigs_ == 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << numConfigs_) - 1;
        repl_ = std::make_unique<ReplacementState>(
            configs.front().replacement, numSets_, assoc_,
            configs.front().randomSeed);

        lanes_.reserve(configs.size());
        subBits8_.reserve(configs.size());
        stats_.reserve(configs.size());
        classOf_.reserve(configs.size());
        grainBits_ = geom.blockBits();
        for (const CacheConfig &config : configs) {
            const CacheGeometry g(config);
            Lane lane;
            lane.subBits = g.subBlockBits();
            lane.numSubs = g.subBlocksPerBlock();
            lane.wordsPerSub = g.wordsPerSubBlock();
            lane.fetch = config.fetch;
            lanes_.push_back(lane);
            subBits8_.push_back(
                static_cast<std::uint8_t>(g.subBlockBits()));
            stats_.emplace_back(g.subBlocksPerBlock(),
                                g.subBlocksPerBlock() *
                                    g.wordsPerSubBlock());
            grainBits_ = std::min(grainBits_, g.subBlockBits());
            // Class = first-appearance index of this sub-block size.
            std::uint8_t k = 0;
            while (k < classBits8_.size() &&
                   classBits8_[k] !=
                       static_cast<std::uint8_t>(g.subBlockBits()))
                ++k;
            if (k == classBits8_.size())
                classBits8_.push_back(
                    static_cast<std::uint8_t>(g.subBlockBits()));
            classOf_.push_back(k);
        }
        numClasses_ =
            static_cast<std::uint32_t>(classBits8_.size());
        numGrains_ = std::uint32_t{1} << (blockBits_ - grainBits_);
        for (std::uint32_t c = 0; c < numConfigs_; ++c) {
            grainShift8_.push_back(static_cast<std::uint8_t>(
                lanes_[c].subBits - grainBits_));
        }
        // Members of each class, ascending config index (flat list +
        // offsets), for the eviction/finalize accounting loops.
        classStart_.assign(numClasses_ + 1, 0);
        for (std::uint32_t c = 0; c < numConfigs_; ++c)
            ++classStart_[classOf_[c] + 1];
        for (std::uint32_t k = 0; k < numClasses_; ++k)
            classStart_[k + 1] += classStart_[k];
        classMembers_.resize(numConfigs_);
        {
            std::vector<std::uint32_t> next(classStart_.begin(),
                                            classStart_.end() - 1);
            for (std::uint32_t c = 0; c < numConfigs_; ++c)
                classMembers_[next[classOf_[c]]++] =
                    static_cast<std::uint8_t>(c);
        }

        const std::size_t frames =
            static_cast<std::size_t>(numSets_) * assoc_;
        tags_.assign(frames, kNoTag);
        ve_.assign(frames * numConfigs_, VE{});
        classTouched_.assign(frames * numClasses_, 0);
        classDirty_.assign(frames * numClasses_, 0);
        grainValid_.assign(frames * numGrains_, 0);

        kernel_ = selectKernel(configs.front().replacement, copyBack_,
                               writeAllocate_, assoc_);
    }

    void replay(const PackedRecord *refs, std::size_t n)
    {
        (this->*kernel_)(refs, n);
    }

    /** Exactly Cache::finalizeResidencies, per config: frames in
     *  order, residency (if present and touched) then the dirty
     *  write-back. Also the point where the pass's uniform access
     *  counters are bulk-added to every config (see the class
     *  comment) and rearmed for a further replay span. */
    void finalize()
    {
        for (std::uint32_t c = 0; c < numConfigs_; ++c) {
            stats_[c].addUniformAccesses(
                countedReads_, ifetchReads_, writes_,
                nonAllocWriteBlockMisses_,
                copyBack_ ? nonAllocWriteBlockMisses_ : writes_);
        }
        countedReads_ = 0;
        ifetchReads_ = 0;
        writes_ = 0;
        nonAllocWriteBlockMisses_ = 0;

        for (std::size_t f = 0; f < tags_.size(); ++f) {
            const bool present = tags_[f] != kNoTag;
            const std::size_t cbase = f * numClasses_;
            for (std::uint32_t k = 0; k < numClasses_; ++k) {
                if (present && classTouched_[cbase + k] != 0) {
                    const auto touched = static_cast<std::uint32_t>(
                        std::popcount(classTouched_[cbase + k]));
                    for (std::uint32_t m = classStart_[k];
                         m < classStart_[k + 1]; ++m)
                        stats_[classMembers_[m]].recordResidency(
                            touched);
                    classTouched_[cbase + k] = 0;
                }
                writebackDirty(k, cbase + k);
            }
        }
    }

    const CacheStats &stats(std::size_t c) const { return stats_[c]; }

  private:
    struct Lane
    {
        std::uint32_t subBits = 0;
        std::uint32_t numSubs = 0;
        std::uint32_t wordsPerSub = 0;
        FetchPolicy fetch = FetchPolicy::Demand;
    };

    static constexpr Addr kNoTag = ~Addr(0);

    /** End-of-residency write-back of class @p k's dirty plane entry
     *  @p idx, recorded into every member of the class. */
    void writebackDirty(std::uint32_t k, std::size_t idx)
    {
        if (classDirty_[idx] != 0) {
            const auto dirty_subs = static_cast<std::uint32_t>(
                std::popcount(classDirty_[idx]));
            for (std::uint32_t m = classStart_[k];
                 m < classStart_[k + 1]; ++m) {
                const std::uint32_t c = classMembers_[m];
                stats_[c].recordWriteback(dirty_subs *
                                          lanes_[c].wordsPerSub);
            }
            classDirty_[idx] = 0;
        }
    }

    /** Mirror config @p c's newly valid sub-blocks
     *  [@p sub_begin, @p sub_end) into @p frame's grain-validity
     *  bitmasks (see the class comment). */
    void markGrains(std::uint32_t c, std::size_t frame,
                    std::uint32_t sub_begin, std::uint32_t sub_end)
    {
        const std::uint32_t shift = grainShift8_[c];
        std::uint64_t *gv = grainValid_.data() + frame * numGrains_;
        const std::uint64_t bit = std::uint64_t{1} << c;
        for (std::uint32_t g = sub_begin << shift,
                           e = sub_end << shift;
             g < e; ++g)
            gv[g] |= bit;
    }

    /** The per-config fetch on a (sub-)block miss: identical mask
     *  evolution and burst accounting to Cache::fetchIntoSpec, plus
     *  the grain-validity mirror update. */
    void fetchSub(std::uint32_t c, std::size_t frame,
                  std::uint32_t sub_index, bool counted, bool cold)
    {
        const Lane &lane = lanes_[c];
        VE &ve = ve_[frame * numConfigs_ + c];
        switch (lane.fetch) {
          case FetchPolicy::Demand:
            ve.valid |= (std::uint64_t{1} << sub_index);
            ve.ever |= (std::uint64_t{1} << sub_index);
            emitBurst(c, 1, counted, cold, 0);
            markGrains(c, frame, sub_index, sub_index + 1);
            break;
          case FetchPolicy::LoadForward: {
            const std::uint32_t span = lane.numSubs - sub_index;
            const std::uint64_t span_mask =
                (span == 64 ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << span) - 1))
                << sub_index;
            const std::uint32_t redundant =
                static_cast<std::uint32_t>(
                    std::popcount(ve.valid & span_mask));
            emitBurst(c, span, counted, cold, redundant);
            ve.valid |= span_mask;
            ve.ever |= span_mask;
            markGrains(c, frame, sub_index, lane.numSubs);
            break;
          }
          case FetchPolicy::LoadForwardOptimized: {
            std::uint32_t run = 0;
            for (std::uint32_t i = sub_index; i < lane.numSubs; ++i) {
                const std::uint64_t bit = std::uint64_t{1} << i;
                if (ve.valid & bit) {
                    if (run != 0) {
                        emitBurst(c, run, counted, cold, 0);
                        run = 0;
                    }
                } else {
                    ve.valid |= bit;
                    ve.ever |= bit;
                    ++run;
                }
            }
            if (run != 0)
                emitBurst(c, run, counted, cold, 0);
            // Every sub-block from sub_index on is now valid
            // (already-valid runs included).
            markGrains(c, frame, sub_index, lane.numSubs);
            break;
          }
          case FetchPolicy::PrefetchNextOnMiss:
            panic("prefetch config in a fused pass");
        }
    }

    void emitBurst(std::uint32_t c, std::uint32_t sub_blocks,
                   bool counted, bool cold,
                   std::uint32_t redundant_sub_blocks)
    {
        const std::uint32_t words =
            sub_blocks * lanes_[c].wordsPerSub;
        if (counted) {
            stats_[c].recordBurst(
                words, cold,
                redundant_sub_blocks * lanes_[c].wordsPerSub);
        } else {
            stats_[c].recordWriteBurst(words);
        }
    }

    template <std::uint32_t A>
    int findWay(std::uint32_t set, Addr block_addr) const
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

    /**
     * One reference through the whole group. The per-config recorder
     * sequence matches Cache::accessSpec call for call — minus the
     * counters hoisted into the pass-level uniform tallies (see the
     * class comment): on a block hit the touched bit, then the
     * sub-miss accounting and fetch when the valid bit is clear; on
     * a block miss the victim's residency + write-back (only when an
     * actual eviction happens), the miss-side counters, the meta
     * reset, the fetch, and the dirty bit — the shared tag write and
     * replacement updates carry no statistics, so hoisting them out
     * of the config loop cannot perturb any counter.
     */
    template <ReplacementPolicy R, bool CopyBack, bool WriteAllocate,
              std::uint32_t A>
    void accessAll(Addr addr, bool is_write, bool is_ifetch)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        const Addr block_addr = addr >> blockBits_;
        const std::uint32_t block_off =
            static_cast<std::uint32_t>(addr & blockMask_);

        // Same block as the previous reference: the frame is known,
        // the tag certainly still resident (an eviction in between
        // would have changed lastBlock_), and the way is already at
        // the protected end of the order — the probe and the LRU
        // update are both no-ops, so skip them. Spatial locality
        // makes this the most common record shape by far.
        std::uint32_t frame_index;
        if (block_addr == lastBlock_) {
            frame_index = lastFrame_;
        } else {
            const std::uint32_t set = static_cast<std::uint32_t>(
                block_addr & setMask_);
            const int way = findWay<A>(set, block_addr);
            if (way < 0) {
                blockMiss<R, CopyBack, WriteAllocate, A>(
                    set, block_addr, block_off, is_write, is_ifetch);
                return;
            }
            frame_index =
                set * assoc + static_cast<std::uint32_t>(way);
            // Interleaved streams (instruction fetch vs data) leave
            // each stream's block most-protected in its own set even
            // when it is not the globally-previous block, so the
            // LRU promotion is very often a no-op — detect that with
            // one compare instead of the scan-and-shift.
            if constexpr (R == ReplacementPolicy::LRU) {
                if (repl_->mostProtected<A>(set) !=
                    static_cast<std::uint32_t>(way)) {
                    repl_->onAccessSpec<R, A>(
                        set, static_cast<std::uint32_t>(way));
                }
            } else {
                repl_->onAccessSpec<R, A>(
                    set, static_cast<std::uint32_t>(way));
            }
            lastBlock_ = block_addr;
            lastFrame_ = frame_index;
        }

        const std::size_t cbase =
            static_cast<std::size_t>(frame_index) * numClasses_;
        std::uint64_t *ct = classTouched_.data() + cbase;
        // One load answers "is this reference's sub-block valid in
        // every lane?" — the overwhelmingly common case.
        std::uint64_t missing =
            ~grainValid_[static_cast<std::size_t>(frame_index) *
                             numGrains_ +
                         (block_off >> grainBits_)] &
            allMask_;
        if (!is_write) {
            ++countedReads_;
            ifetchReads_ += is_ifetch ? 1 : 0;
            for (std::uint32_t k = 0; k < numClasses_; ++k)
                ct[k] |= std::uint64_t{1}
                         << (block_off >> classBits8_[k]);
            while (missing != 0) [[unlikely]] {
                const auto c = static_cast<std::uint32_t>(
                    std::countr_zero(missing));
                missing &= missing - 1;
                // Sub-block miss under a matching tag.
                const std::uint32_t sub_index =
                    block_off >> subBits8_[c];
                const std::uint64_t sub_bit = std::uint64_t{1}
                                              << sub_index;
                const bool cold =
                    (ve_[static_cast<std::size_t>(frame_index) *
                             numConfigs_ +
                         c]
                         .ever &
                     sub_bit) == 0;
                stats_[c].recordMissCounters(is_ifetch, false, cold);
                fetchSub(c, frame_index, sub_index, true, cold);
            }
        } else {
            ++writes_;
            for (std::uint32_t k = 0; k < numClasses_; ++k) {
                const std::uint64_t sub_bit =
                    std::uint64_t{1} << (block_off >> classBits8_[k]);
                ct[k] |= sub_bit;
                if constexpr (CopyBack)
                    classDirty_[cbase + k] |= sub_bit;
            }
            while (missing != 0) [[unlikely]] {
                const auto c = static_cast<std::uint32_t>(
                    std::countr_zero(missing));
                missing &= missing - 1;
                // cold is only consumed by counted bursts, so the
                // write path skips the ever lookup.
                stats_[c].recordWriteMissCounter();
                fetchSub(c, frame_index, block_off >> subBits8_[c],
                         false, false);
            }
        }
    }

    /** The block-miss tail of accessAll, out of line so the hit
     *  path's code stays compact. */
    template <ReplacementPolicy R, bool CopyBack, bool WriteAllocate,
              std::uint32_t A>
    void blockMiss(std::uint32_t set, Addr block_addr,
                   std::uint32_t block_off, bool is_write,
                   bool is_ifetch)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        if constexpr (!WriteAllocate) {
            if (is_write) {
                // Per config this is one write access, one write
                // miss, and one store word — all uniform, all
                // bulk-added at finalize. No allocation, so the
                // previous reference's frame is untouched and
                // lastBlock_ stays valid.
                ++writes_;
                ++nonAllocWriteBlockMisses_;
                return;
            }
        }
        if (is_write) {
            ++writes_;
        } else {
            ++countedReads_;
            ifetchReads_ += is_ifetch ? 1 : 0;
        }

        // Claim the fill way: first invalid way, else the shared
        // replacement victim (whose residency ends for EVERY config).
        const std::size_t set_base =
            static_cast<std::size_t>(set) * assoc;
        std::uint32_t victim = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (tags_[set_base + w] == kNoTag) {
                victim = w;
                break;
            }
        }
        const bool evicting = victim == assoc;
        if (evicting)
            victim = repl_->victimSpec<R, A>(set);

        const std::size_t frame_index = set_base + victim;
        const std::size_t cbase = frame_index * numClasses_;
        // The victim's residency ends for every config: per class,
        // one popcount feeds every member's residency histogram and
        // (copy-back) write-back accounting.
        if (evicting) {
            for (std::uint32_t k = 0; k < numClasses_; ++k) {
                const auto touched = static_cast<std::uint32_t>(
                    std::popcount(classTouched_[cbase + k]));
                for (std::uint32_t m = classStart_[k];
                     m < classStart_[k + 1]; ++m)
                    stats_[classMembers_[m]].recordResidency(touched);
                writebackDirty(k, cbase + k);
            }
        }
        // Reset the shared planes for the incoming block: the filled
        // sub-block is touched (and, on an allocating write under
        // copy-back, dirty) in every class.
        for (std::uint32_t k = 0; k < numClasses_; ++k) {
            const std::uint64_t sub_bit =
                std::uint64_t{1} << (block_off >> classBits8_[k]);
            classTouched_[cbase + k] = sub_bit;
            if constexpr (CopyBack)
                classDirty_[cbase + k] = is_write ? sub_bit : 0;
            else
                classDirty_[cbase + k] = 0;
        }
        std::fill_n(grainValid_.begin() + frame_index * numGrains_,
                    numGrains_, std::uint64_t{0});
        for (std::uint32_t c = 0; c < numConfigs_; ++c) {
            const std::uint32_t sub_index =
                block_off >> subBits8_[c];
            const std::uint64_t sub_bit = std::uint64_t{1}
                                          << sub_index;
            const bool cold =
                (ve_[frame_index * numConfigs_ + c].ever & sub_bit) ==
                0;
            if (!is_write)
                stats_[c].recordMissCounters(is_ifetch, true, cold);
            else
                stats_[c].recordWriteMissCounter();
            ve_[frame_index * numConfigs_ + c].valid = 0;
            fetchSub(c, frame_index, sub_index, !is_write, cold);
        }
        tags_[frame_index] = block_addr;
        repl_->onFillSpec<R, A>(set, victim);
        // The filled way is now the most-protected entry of its set,
        // exactly the invariant the same-block fast path relies on.
        lastBlock_ = block_addr;
        lastFrame_ = static_cast<std::uint32_t>(frame_index);
    }

    template <ReplacementPolicy R, bool CopyBack, bool WriteAllocate,
              std::uint32_t A>
    void replayLoop(const PackedRecord *refs, std::size_t n)
    {
        // Same look-ahead as Cache::replayLoop: the tag read of a
        // record a few iterations out is the dominant cache-missing
        // load on large set counts. On the paper-scale geometries the
        // whole pass state fits in L1 and the look-ahead arithmetic
        // would be pure per-record overhead, so it is skipped when
        // the masks and tags together stay under the threshold.
        constexpr std::size_t kPrefetchDistance = 8;
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        const bool prefetch =
            grainValid_.size() * sizeof(std::uint64_t) +
                classTouched_.size() * sizeof(std::uint64_t) +
                tags_.size() * sizeof(Addr) >
            16384;
        for (std::size_t i = 0; i < n; ++i) {
            if (prefetch && i + kPrefetchDistance < n) {
                const Addr ahead = refs[i + kPrefetchDistance].addr();
                const std::size_t frame =
                    static_cast<std::size_t>(
                        (ahead >> blockBits_) & setMask_) *
                    assoc;
                OCCSIM_PREFETCH_READ(tags_.data() + frame);
                OCCSIM_PREFETCH_READ(grainValid_.data() +
                                     frame * numGrains_);
                OCCSIM_PREFETCH_READ(classTouched_.data() +
                                     frame * numClasses_);
            }
            const PackedRecord rec = refs[i];
            accessAll<R, CopyBack, WriteAllocate, A>(
                rec.addr(), rec.isWrite(), rec.isInstruction());
        }
    }

    using Kernel = void (Pass::*)(const PackedRecord *, std::size_t);

    static Kernel selectKernel(ReplacementPolicy repl, bool copy_back,
                               bool write_allocate,
                               std::uint32_t assoc)
    {
        const auto pick_write =
            [copy_back,
             write_allocate]<ReplacementPolicy R, std::uint32_t A>() {
                if (copy_back) {
                    return write_allocate
                               ? &Pass::replayLoop<R, true, true, A>
                               : &Pass::replayLoop<R, true, false, A>;
                }
                return write_allocate
                           ? &Pass::replayLoop<R, false, true, A>
                           : &Pass::replayLoop<R, false, false, A>;
            };
        const auto pick_assoc =
            [&pick_write, assoc]<ReplacementPolicy R>() {
                switch (assoc) {
                  case 1:
                    return pick_write.operator()<R, 1u>();
                  case 2:
                    return pick_write.operator()<R, 2u>();
                  case 4:
                    return pick_write.operator()<R, 4u>();
                  case 8:
                    return pick_write.operator()<R, 8u>();
                  default:
                    return pick_write.operator()<R, 0u>();
                }
            };
        switch (repl) {
          case ReplacementPolicy::LRU:
            return pick_assoc.operator()<ReplacementPolicy::LRU>();
          case ReplacementPolicy::FIFO:
            return pick_assoc.operator()<ReplacementPolicy::FIFO>();
          case ReplacementPolicy::Random:
            break;  // ineligible; fall through to panic
        }
        panic("bad fused replacement policy %d",
              static_cast<int>(repl));
    }

    std::uint32_t numSets_ = 0;
    std::uint32_t assoc_ = 0;
    std::uint32_t blockBits_ = 0;
    Addr setMask_ = 0;
    Addr blockMask_ = 0;
    bool copyBack_ = false;
    bool writeAllocate_ = true;
    /** The miss paths' per-config masks, interleaved so one (frame,
     *  config) lane is one 16-byte read-modify-write. */
    struct VE
    {
        std::uint64_t valid = 0;
        std::uint64_t ever = 0;
    };

    std::uint32_t numConfigs_ = 0;
    std::uint32_t numClasses_ = 0;
    std::uint32_t numGrains_ = 0;
    std::uint32_t grainBits_ = 0;
    /** One bit per member config (numConfigs_ <= 64). */
    std::uint64_t allMask_ = 0;
    Kernel kernel_ = nullptr;
    std::unique_ptr<ReplacementState> repl_;
    std::vector<Lane> lanes_;
    /** lanes_[c].subBits again, one byte per config: the only lane
     *  field the miss loops need, kept dense. */
    std::vector<std::uint8_t> subBits8_;
    /** subBits of each distinct sub-block size ("class"), first-
     *  appearance order. */
    std::vector<std::uint8_t> classBits8_;
    std::vector<std::uint8_t> classOf_;     ///< config -> class
    std::vector<std::uint8_t> grainShift8_; ///< subBits - grainBits
    /** Members of class k: classMembers_[classStart_[k] ..
     *  classStart_[k+1]), ascending config index. */
    std::vector<std::uint32_t> classStart_;
    std::vector<std::uint8_t> classMembers_;
    std::vector<CacheStats> stats_;
    /** Shared block tags (kNoTag = empty); indexed set * assoc + way. */
    std::vector<Addr> tags_;
    // Mask planes (see the class comment): per-config valid/ever,
    // per-class touched/dirty, per-grain config-validity bitmasks.
    std::vector<VE> ve_;                     ///< [frame*numConfigs+c]
    std::vector<std::uint64_t> classTouched_; ///< [frame*numClasses+k]
    std::vector<std::uint64_t> classDirty_;   ///< [frame*numClasses+k]
    std::vector<std::uint64_t> grainValid_;   ///< [frame*numGrains+g]

    // Pass-level uniform access tallies (see the class comment),
    // flushed into every config's CacheStats at finalize.
    std::uint64_t countedReads_ = 0;
    std::uint64_t ifetchReads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t nonAllocWriteBlockMisses_ = 0;

    // Same-block fast path: the previous reference's resident block
    // and its frame. Maintained by every path that (re)establishes
    // residency; kNoTag until the first allocation.
    Addr lastBlock_ = kNoTag;
    std::uint32_t lastFrame_ = 0;
};

FusedReplay::FusedReplay(const std::vector<CacheConfig> &configs,
                         std::uint32_t num_shards)
    : configs_(configs)
{
    occsim_assert(!configs_.empty(),
                  "fused group needs at least one config");
    const FusedKey key = fusedKeyOf(configs_.front());
    for (const CacheConfig &config : configs_) {
        occsim_assert(fusedEligible(config),
                      "fusing an ineligible config (%s)",
                      config.fullName().c_str());
        occsim_assert(fusedKeyOf(config) == key,
                      "fused group mixes keys (%s)",
                      config.fullName().c_str());
    }
    const CacheGeometry geom(configs_.front());
    occsim_assert(num_shards >= 1 && isPowerOfTwo(num_shards) &&
                      num_shards <= geom.numSets() &&
                      num_shards <= kMaxShards,
                  "bad fused shard count %u for %u sets", num_shards,
                  geom.numSets());
    blockBits_ = geom.blockBits();
    numShards_ = num_shards;
    shardBits_ = floorLog2(num_shards);
    grossBytes_.reserve(configs_.size());
    for (const CacheConfig &config : configs_)
        grossBytes_.push_back(CacheGeometry(config).grossBytes());
    passes_.reserve(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s)
        passes_.push_back(std::make_unique<Pass>(configs_));
    refs_.assign(num_shards, 0);
}

FusedReplay::~FusedReplay() = default;

void
FusedReplay::run(const PackedRecord *refs, std::size_t n)
{
    occsim_assert(numShards_ == 1,
                  "run() drives an unsharded fused pass; use "
                  "runShard() with %u shards",
                  numShards_);
    OCCSIM_TELEM_STAGE("engine.fused");
    passes_[0]->replay(refs, n);
    passes_[0]->finalize();
    refs_[0] += n;
    OCCSIM_TELEM_COUNT("engine.fused.refs", n * configs_.size());
    OCCSIM_TELEM_COUNT("engine.fused.bytes", n * sizeof(PackedRecord));
}

void
FusedReplay::runShard(std::size_t shard, const PackedRecord *refs,
                      std::size_t n)
{
    occsim_assert(shard < passes_.size(), "shard %zu of %zu", shard,
                  passes_.size());
    OCCSIM_TELEM_STAGE("engine.fused");
    Pass &pass = *passes_[shard];
    const std::uint64_t kept = forEachShardChunk(
        refs, n, blockBits_, shardBits_,
        static_cast<std::uint32_t>(shard),
        [&](const PackedRecord *records, std::size_t count) {
            pass.replay(records, count);
        });
    pass.finalize();
    refs_[shard] += kept;
    OCCSIM_TELEM_COUNT("engine.fused.refs", kept * configs_.size());
    OCCSIM_TELEM_COUNT("engine.fused.bytes", n * sizeof(PackedRecord));
}

CacheStats
FusedReplay::mergedStats(std::size_t c) const
{
    const CacheGeometry geom(configs_[c]);
    CacheStats merged(geom.subBlocksPerBlock(),
                      geom.subBlocksPerBlock() *
                          geom.wordsPerSubBlock());
    for (const auto &pass : passes_)
        merged.mergeFrom(pass->stats(c));
    return merged;
}

SweepResult
FusedReplay::result(std::size_t c) const
{
    return summarizeStats(configs_[c], grossBytes_[c],
                          mergedStats(c));
}

std::vector<SweepResult>
FusedReplay::results() const
{
    std::vector<SweepResult> out;
    out.reserve(configs_.size());
    for (std::size_t c = 0; c < configs_.size(); ++c)
        out.push_back(result(c));
    return out;
}

void
ShardTelemetry::accumulate(const FusedReplay &engine)
{
    std::uint64_t lo = engine.shardRefs(0);
    std::uint64_t hi = lo;
    for (std::uint32_t s = 1; s < engine.numShards(); ++s) {
        lo = std::min(lo, engine.shardRefs(s));
        hi = std::max(hi, engine.shardRefs(s));
    }
    maxShardRefs = std::max(maxShardRefs, hi);
    minShardRefs = shardedRuns == 0 ? lo : std::min(minShardRefs, lo);
    maxShards = std::max(maxShards, engine.numShards());
    ++shardedRuns;
}

} // namespace occsim
