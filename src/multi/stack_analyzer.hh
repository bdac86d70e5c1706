/**
 * @file
 * Mattson LRU stack-distance analysis (Mattson, Gecsei, Slutz &
 * Traiger 1970, the paper's reference [16] and its stated reason for
 * choosing LRU: "LRU permits more efficient simulation").
 *
 * One pass over a trace yields the miss ratio of *every* capacity at
 * once, for a fixed block size. StackAnalyzer models fully-associative
 * LRU: the stack distance of a reference is the number of distinct
 * blocks referenced since the last touch of its block, and a cache of
 * C blocks misses exactly the references with distance > C (inclusion
 * property).
 *
 * The analyzer runs on the LruTracker order-statistics structure
 * (hash map + Fenwick tree, below), so a reference costs
 * O(log depth) instead of the O(depth) linear stack scan of the
 * classic implementation. Distances beyond max_depth are
 * classified exactly as the historical bounded-stack code did: a
 * bounded LRU stack of depth D evicts a block precisely when its true
 * reuse distance exceeds D, so exact-distance classification
 * reproduces the old counters bit-for-bit while no longer bounding
 * the per-reference search.
 *
 * The analyzer doubles as an independent oracle for the Cache model
 * (with sub-block == block its predictions must match direct
 * simulation exactly), which the test suite exploits.
 */

#ifndef OCCSIM_MULTI_STACK_ANALYZER_HH
#define OCCSIM_MULTI_STACK_ANALYZER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/trace.hh"
#include "util/bitops.hh"

namespace occsim {

/**
 * Order-statistics multiset of block last-touch times.
 *
 * Times are inserted in strictly increasing order, so the backing
 * array stays sorted by construction; a Fenwick tree over array
 * positions counts the live (not yet superseded) entries, giving
 * O(log n) rank queries and updates where the classic LRU stack
 * needs an O(n) scan. Superseded entries are dropped lazily: the
 * array is compacted once more than half of it is dead, so memory
 * stays proportional to the live set.
 */
class TouchTimeSet
{
  public:
    /** Insert @p t, which must exceed every time ever inserted. */
    void insertNew(std::uint64_t t);

    /**
     * Re-touch: supersede the live entry @p prev with the new
     * maximal time @p t.
     * @return the number of live entries greater than @p prev — the
     *         number of distinct blocks touched since, i.e. the
     *         0-based LRU stack depth.
     */
    std::uint64_t touch(std::uint64_t prev, std::uint64_t t);

    /** Number of live entries (distinct blocks tracked). */
    std::uint64_t live() const { return live_; }

  private:
    /** Live entries among positions [1, pos] (1-based, inclusive). */
    std::uint64_t prefix(std::size_t pos) const;

    /** Append @p t as a live entry (t beyond every present time). */
    void append(std::uint64_t t);

    /** Drop dead entries once they dominate the array. */
    void maybeCompact();

    std::vector<std::uint64_t> times_;  ///< sorted; live and dead
    std::vector<std::uint8_t> alive_;   ///< parallel liveness flags
    std::vector<std::uint32_t> tree_;   ///< 1-based Fenwick of live counts
    std::uint64_t live_ = 0;
};

/**
 * Fully-associative LRU stack-distance tracker: a hash map of block
 * last-touch times plus one TouchTimeSet over them. This is the
 * O(log depth) replacement for the linear touchStack scan behind
 * StackAnalyzer below.
 */
class LruTracker
{
  public:
    /** Distance returned for the first touch of a block. */
    static constexpr std::uint64_t kFirstTouch = ~0ULL;

    /**
     * Record a touch of @p block (a block address, i.e. addr >>
     * log2(blockSize)).
     * @return the 1-based LRU stack distance of the block, or
     *         kFirstTouch if never seen before.
     */
    std::uint64_t touch(Addr block);

  private:
    TouchTimeSet stack_;
    std::unordered_map<Addr, std::uint64_t> lastTouch_;
    std::uint64_t clock_ = 0;
};

/** Fully-associative LRU stack-distance profiler. */
class StackAnalyzer
{
  public:
    /**
     * @param block_size block size in bytes (power of two).
     * @param max_depth stack distances beyond this count as infinite
     *        (they miss in every capacity the analyzer can answer
     *        for); bounds the histogram, not the search cost.
     */
    explicit StackAnalyzer(std::uint32_t block_size,
                           std::uint32_t max_depth = 4096);

    /** Record one reference. */
    void process(Addr addr);

    /** Process all references of @p trace. */
    void processTrace(const VectorTrace &trace);

    std::uint64_t refs() const { return refs_; }

    /** Number of references that miss in every answerable capacity:
     *  first touches plus reuses beyond max_depth (the historical
     *  bounded-stack accounting). */
    std::uint64_t distinctBlocks() const { return distinct_; }

    /**
     * Miss ratio of a fully-associative LRU cache holding
     * @p capacity_blocks blocks (demand fetch, cold start).
     */
    double missRatioForCapacity(std::uint32_t capacity_blocks) const;

    /** Raw histogram: hist[d] = refs with stack distance d (d >= 1);
     *  hist[0] unused. */
    const std::vector<std::uint64_t> &distanceHistogram() const
    {
        return distanceHist_;
    }

    /** References whose (exact) distance exceeded max_depth; a
     *  subset of distinctBlocks(). */
    std::uint64_t overflowRefs() const { return overflow_; }

  private:
    std::uint32_t blockBits_;
    std::uint32_t maxDepth_;
    LruTracker tracker_;
    std::vector<std::uint64_t> distanceHist_;
    /** Lazily rebuilt prefix sums: hitsUpTo_[c] = refs with distance
     *  in [1, c] — one pass instead of a rescan per query. */
    mutable std::vector<std::uint64_t> hitsUpTo_;
    mutable bool prefixStale_ = true;
    std::uint64_t refs_ = 0;
    std::uint64_t distinct_ = 0;
    std::uint64_t overflow_ = 0;
};

} // namespace occsim

#endif // OCCSIM_MULTI_STACK_ANALYZER_HH
