/**
 * @file
 * Replacement policies for set-associative caches.
 *
 * The paper runs everything with LRU (citing Mattson et al.'s
 * efficient-simulation argument and Strecker's observation that LRU,
 * FIFO and RANDOM perform comparably); FIFO and Random are provided so
 * that observation can be reproduced as an ablation.
 *
 * One ReplacementState instance manages every set of one cache. Each
 * frame carries a 64-bit age stamp drawn from a per-cache clock: LRU
 * stamps a way on fill and on every reference, FIFO on fill only. The
 * eviction order of a set is its ways sorted by (stamp, way): the
 * lowest stamp is the next victim, ties (never-stamped ways) go to
 * the lowest way. That is exactly the order a move-to-back list
 * starting at 0..assoc-1 would hold, with a store in place of the
 * list's scan-and-shift. A 1-way cache and Random keep no stamps.
 */

#ifndef OCCSIM_CACHE_REPLACEMENT_HH
#define OCCSIM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace occsim {

/** Per-cache replacement bookkeeping. */
class ReplacementState
{
  public:
    ReplacementState(ReplacementPolicy policy, std::uint32_t num_sets,
                     std::uint32_t assoc, std::uint64_t seed = 1);

    /** A resident way was referenced (hit or sub-block miss). */
    void onAccess(std::uint32_t set, std::uint32_t way);

    /** A way was (re)filled with a new block. */
    void onFill(std::uint32_t set, std::uint32_t way);

    /** @return the way to evict from @p set. */
    std::uint32_t victim(std::uint32_t set);

    // ---- policy-specialized fast paths (replay kernels) ----
    // Identical state evolution to the runtime methods above, with
    // the policy branch resolved at compile time so the stamp store
    // inlines into the kernel's per-reference loop. The @p A
    // parameter optionally fixes the associativity at compile time
    // (0 = use the runtime value), unrolling the victim's oldest-stamp
    // scan for the common 1/2/4/8-way geometries.

    /** onAccess with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    void onAccessSpec(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (P == ReplacementPolicy::LRU)
            stamp<A>(set, way);
    }

    /** onFill with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    void onFillSpec(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (P == ReplacementPolicy::LRU ||
                      P == ReplacementPolicy::FIFO) {
            stamp<A>(set, way);
        }
    }

    /** victim with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    std::uint32_t victimSpec(std::uint32_t set)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        if constexpr (P == ReplacementPolicy::Random) {
            return static_cast<std::uint32_t>(rng_.below(assoc));
        } else {
            if (assoc == 1)
                return 0;
            // The running minimum stays in a register, so no load
            // waits on the previous step's pick.
            const std::uint64_t *stamps = setStamps(set);
            std::uint32_t oldest = 0;
            std::uint64_t oldest_stamp = stamps[0];
            for (std::uint32_t way = 1; way < assoc; ++way) {
                const bool older = stamps[way] < oldest_stamp;
                oldest = older ? way : oldest;
                oldest_stamp = older ? stamps[way] : oldest_stamp;
            }
            return oldest;
        }
    }

    /**
     * @return the ways of @p set ordered from next-victim to most
     * protected (meaningful for LRU/FIFO; 0..assoc-1 for Random).
     */
    std::vector<std::uint32_t> evictionOrder(std::uint32_t set) const;

    /**
     * Seed @p set's eviction order for a warm-checkpoint restore
     * where ways 0..@p filled-1 hold blocks in most-recently-used
     * order (way 0 = MRU) and ways @p filled..assoc-1 are empty:
     * the empty ways come first (arbitrary — victim selection never
     * reaches them while an invalid way exists), then the occupied
     * ways LRU-first, so the next victim among occupied ways is way
     * filled-1 and the most protected is way 0.
     */
    void seedMruOrder(std::uint32_t set, std::uint32_t filled);

  private:
    /** Stamp @p way of @p set with the next clock value. @p A as in
     *  the Spec methods above (0 = runtime associativity). */
    template <std::uint32_t A = 0>
    void stamp(std::uint32_t set, std::uint32_t way)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        if (assoc != 1)
            setStamps(set)[way] = ++clock_;
    }

    std::uint64_t *setStamps(std::uint32_t set)
    {
        return stamps_.data() + static_cast<std::size_t>(set) * assoc_;
    }
    const std::uint64_t *setStamps(std::uint32_t set) const
    {
        return stamps_.data() + static_cast<std::size_t>(set) * assoc_;
    }

    ReplacementPolicy policy_;
    std::uint32_t assoc_;
    /** Last stamp handed out; 0 marks a never-stamped way. */
    std::uint64_t clock_ = 0;
    /** numSets * assoc stamps, each set a contiguous slice; empty for
     *  Random and for a 1-way cache. */
    std::vector<std::uint64_t> stamps_;
    Rng rng_;
};

} // namespace occsim

#endif // OCCSIM_CACHE_REPLACEMENT_HH
