/**
 * @file
 * One core's private cache in a coherent multi-cache scenario.
 *
 * CoherentCache is the Cache model (cache/cache.hh) restricted to the
 * MESI engine's subset — copy-back, write-allocate, demand fetch,
 * unified — with one addition: a MESI state per frame. Everything
 * else is deliberately the same machinery (CacheGeometry address
 * arithmetic, CacheStats accounting, ReplacementState order lists,
 * kNoTag empty frames, everFilled cold tracking), evolved in the same
 * order as Cache::access(), so a 1-core CoherentSystem produces
 * CacheStats bit-identical to a plain Cache over the same trace —
 * the redesign's anchor invariant, enforced by test_coherence.
 *
 * The bus-side protocol logic lives in CoherentSystem, which drives
 * this class through a friend interface: local hits/misses, snoop
 * flushes, and invalidations all mutate the same frame arrays the
 * local path uses.
 */

#ifndef OCCSIM_COHERENCE_COHERENT_CACHE_HH
#define OCCSIM_COHERENCE_COHERENT_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/cache_geometry.hh"
#include "cache/cache_stats.hh"
#include "cache/replacement.hh"
#include "coherence/mesi.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace occsim {

class CoherentSystem;

/** One private cache with per-frame MESI state. */
class CoherentCache
{
  public:
    explicit CoherentCache(const CacheConfig &config);

    const CacheConfig &config() const { return geom_.config(); }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }

    /** MESI state of the block containing @p addr (Invalid when the
     *  tag is absent). Probe for tests. */
    MesiState stateOf(Addr addr) const;

    /** @return true if the sub-block containing @p addr is resident. */
    bool isResident(Addr addr) const;

    /** Account still-resident blocks into the residency histogram and
     *  flush remaining dirty sub-blocks, exactly as
     *  Cache::finalizeResidencies(). */
    void finalizeResidencies();

  private:
    friend class CoherentSystem;

    /** Per-frame sub-block masks (same layout as Cache::FrameMeta). */
    struct FrameMeta
    {
        std::uint64_t valid = 0;
        std::uint64_t touched = 0;
        std::uint64_t dirty = 0;
    };

    static constexpr Addr kNoTag = ~Addr(0);

    bool framePresent(std::size_t frame) const
    {
        return tags_[frame] != kNoTag;
    }

    /** Way holding @p block_addr in @p set, or -1. @p A fixes the
     *  associativity at compile time when nonzero (0 = runtime
     *  value), unrolling the scan in the coherent kernel. */
    template <std::uint32_t A = 0>
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

    // ---- replacement updates of the coherent kernel ----
    // @p R is the policy fixed at compile time, or kRuntimePolicy for
    // a scenario whose cores differ in policy or associativity: that
    // instantiation takes the runtime ReplacementState calls. @p A as
    // in findWay.

    /** The kernel's policy argument when the cores do not share one
     *  (policy, associativity); never a configured policy. */
    static constexpr ReplacementPolicy kRuntimePolicy =
        static_cast<ReplacementPolicy>(0xff);

    /** A resident way was referenced (hit or sub-block miss). */
    template <ReplacementPolicy R, std::uint32_t A>
    void touchWay(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (R == kRuntimePolicy) {
            repl_.onAccess(set, way);
        } else if constexpr (R == ReplacementPolicy::LRU) {
            // Re-referencing the most-protected way leaves the LRU
            // order as it is: one compare instead of the
            // scan-and-shift.
            if (repl_.mostProtected<A>(set) != way)
                repl_.onAccessSpec<R, A>(set, way);
        } else {
            repl_.onAccessSpec<R, A>(set, way);
        }
    }

    /** A way was filled with a new block. */
    template <ReplacementPolicy R, std::uint32_t A>
    void fillWay(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (R == kRuntimePolicy)
            repl_.onFill(set, way);
        else
            repl_.onFillSpec<R, A>(set, way);
    }

    /** Claim the way a new block fill will occupy — the first invalid
     *  way, else the replacement victim — retiring the previous
     *  residency (touched histogram + dirty write-back), exactly as
     *  Cache::claimVictimSpec. */
    template <ReplacementPolicy R, std::uint32_t A>
    std::uint32_t claimVictim(std::uint32_t set)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        const std::size_t base = static_cast<std::size_t>(set) * assoc;
        const Addr *tags = tags_.data() + base;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (tags[w] == kNoTag)
                return w;
        }
        std::uint32_t victim;
        if constexpr (R == kRuntimePolicy)
            victim = repl_.victim(set);
        else
            victim = repl_.victimSpec<R, A>(set);
        stats_.recordResidency(static_cast<std::uint32_t>(
            std::popcount(meta_[base + victim].touched)));
        writebackDirty(base + victim);
        return victim;
    }

    /** Fill @p sub_bit of @p frame from the bus: valid + ever-filled
     *  bits plus one recorded burst (counted read traffic vs
     *  write-miss traffic), exactly as the demand fetchIntoSpec. */
    void fillSub(std::size_t frame, std::uint64_t sub_bit, bool counted,
                 bool cold)
    {
        meta_[frame].valid |= sub_bit;
        everFilled_[frame] |= sub_bit;
        if (counted)
            stats_.recordBurst(wordsPerSub_, cold, 0);
        else
            stats_.recordWriteBurst(wordsPerSub_);
    }

    /** Copy-back write-back of @p frame's dirty sub-blocks.
     *  @return words written back (0 when clean). */
    std::uint32_t writebackDirty(std::size_t frame)
    {
        FrameMeta &meta = meta_[frame];
        if (meta.dirty == 0)
            return 0;
        const std::uint32_t words =
            static_cast<std::uint32_t>(std::popcount(meta.dirty)) *
            wordsPerSub_;
        stats_.recordWriteback(words);
        meta.dirty = 0;
        return words;
    }

    /** Snoop-forced invalidation: retire the residency, write back
     *  dirty data, drop the tag and state. everFilled_ survives (a
     *  re-fetch after an invalidation is coherency traffic, not a
     *  cold miss). @return words written back by the flush. */
    std::uint32_t invalidateFrame(std::size_t frame)
    {
        occsim_assert(framePresent(frame),
                      "invalidating an empty frame %zu", frame);
        FrameMeta &meta = meta_[frame];
        if (meta.touched != 0) {
            stats_.recordResidency(
                static_cast<std::uint32_t>(std::popcount(meta.touched)));
        }
        const std::uint32_t words = writebackDirty(frame);
        tags_[frame] = kNoTag;
        meta = FrameMeta{};
        mesi_[frame] = MesiState::Invalid;
        return words;
    }

    CacheGeometry geom_;
    std::uint32_t assoc_;
    std::uint32_t wordsPerSub_;
    ReplacementState repl_;
    CacheStats stats_;
    std::vector<Addr> tags_;           ///< set * assoc + way
    std::vector<FrameMeta> meta_;      ///< parallel to tags_
    std::vector<std::uint64_t> everFilled_;
    std::vector<MesiState> mesi_;      ///< parallel to tags_
};

} // namespace occsim

#endif // OCCSIM_COHERENCE_COHERENT_CACHE_HH
