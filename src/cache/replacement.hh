/**
 * @file
 * Replacement policies for set-associative caches.
 *
 * The paper runs everything with LRU (citing Mattson et al.'s
 * efficient-simulation argument and Strecker's observation that LRU,
 * FIFO and RANDOM perform comparably); FIFO and Random are provided so
 * that observation can be reproduced as an ablation.
 *
 * One ReplacementState instance manages every set of one cache. Ways
 * within a set are tracked in an eviction-order list: position 0 is
 * the next victim, the last position the most protected.
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
    // the policy branch resolved at compile time so the LRU
    // move-to-back inlines into the kernel's per-reference loop
    // (onAccess runs on every hit; an out-of-line call here was the
    // dominant per-reference cost of the batched engine). The @p A
    // parameter optionally fixes the associativity at compile time
    // (0 = use the runtime value), fully unrolling the order-list
    // scan for the common 1/2/4/8-way geometries.

    /** onAccess with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    void onAccessSpec(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (P == ReplacementPolicy::LRU)
            moveToBack<A>(set, way);
    }

    /** onFill with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    void onFillSpec(std::uint32_t set, std::uint32_t way)
    {
        if constexpr (P == ReplacementPolicy::LRU ||
                      P == ReplacementPolicy::FIFO) {
            moveToBack<A>(set, way);
        }
    }

    /** The most-protected way of @p set — the back of the eviction
     *  order. moveToBack is a no-op for that way, so a caller holding
     *  a hit on it may skip onAccessSpec: one load and compare in
     *  place of the scan-and-shift. Meaningful for LRU and FIFO. */
    template <std::uint32_t A = 0>
    std::uint32_t mostProtected(std::uint32_t set) const
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        return setOrder(set)[assoc - 1];
    }

    /** victim with @p P (and optionally assoc) resolved at compile
     *  time. */
    template <ReplacementPolicy P, std::uint32_t A = 0>
    std::uint32_t victimSpec(std::uint32_t set)
    {
        if constexpr (P == ReplacementPolicy::Random) {
            return static_cast<std::uint32_t>(
                rng_.below(A != 0 ? A : assoc_));
        } else {
            return setOrder(set)[0];
        }
    }

    /**
     * @return the ways of @p set ordered from next-victim to most
     * protected (meaningful for LRU/FIFO; arbitrary for Random).
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
    void seedMruOrder(std::uint32_t set, std::uint32_t filled)
    {
        occsim_assert(filled <= assoc_,
                      "seeding %u filled ways into %u-way set",
                      filled, assoc_);
        std::uint8_t *slice = setOrder(set);
        std::uint32_t pos = 0;
        for (std::uint32_t way = filled; way < assoc_; ++way)
            slice[pos++] = static_cast<std::uint8_t>(way);
        for (std::uint32_t way = filled; way > 0; --way)
            slice[pos++] = static_cast<std::uint8_t>(way - 1);
    }

  private:
    // Defined inline (rather than in replacement.cc) so the
    // policy-specialized fast paths above fold into their callers.
    std::uint8_t *setOrder(std::uint32_t set)
    {
        return order_.data() +
               static_cast<std::size_t>(set) * assoc_;
    }
    const std::uint8_t *setOrder(std::uint32_t set) const
    {
        return order_.data() +
               static_cast<std::size_t>(set) * assoc_;
    }

    /** Promote @p way to the most-protected slot of @p set. @p A as
     *  in the Spec methods above (0 = runtime associativity). */
    template <std::uint32_t A = 0>
    void moveToBack(std::uint32_t set, std::uint32_t way)
    {
        const std::uint32_t assoc = A != 0 ? A : assoc_;
        std::uint8_t *slice = setOrder(set);
        std::uint32_t pos = 0;
        while (pos < assoc && slice[pos] != way)
            ++pos;
        occsim_assert(pos < assoc,
                      "way %u not present in set %u order", way, set);
        for (; pos + 1 < assoc; ++pos)
            slice[pos] = slice[pos + 1];
        slice[assoc - 1] = static_cast<std::uint8_t>(way);
    }

    ReplacementPolicy policy_;
    std::uint32_t numSets_;
    std::uint32_t assoc_;
    /** numSets * assoc way ids, each set a contiguous slice. */
    std::vector<std::uint8_t> order_;
    Rng rng_;
};

} // namespace occsim

#endif // OCCSIM_CACHE_REPLACEMENT_HH
