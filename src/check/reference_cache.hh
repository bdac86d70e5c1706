/**
 * @file
 * The differential-testing oracle: a deliberately naive sub-block
 * cache simulator written for auditability, not speed.
 *
 * occsim has several independent ways to price one cache
 * configuration — the direct Cache/SectorCache engines, the
 * runSweep routing layer, and the batched, set-sharded and
 * fused replay kernels — all promising bit-identical results. This
 * file supplies the trusted leg of the comparison: every structure is
 * a plain std::vector<bool> or an explicit list, every policy is
 * written out longhand from the semantics in cache/cache.hh and the
 * paper's Section 3.2 definitions, and every statistic is a plain
 * integer counter re-derived from first principles. There are no
 * bitmasks, no popcounts, no Fenwick trees, and no shared hot-path
 * code; a reader should be able to check each member function
 * against the paper in isolation.
 *
 * The one piece of deliberately shared code is the xoshiro Rng: the
 * Random replacement policy is *defined* by the victim sequence that
 * generator produces for config.randomSeed, so the oracle must
 * consume the identical stream (one below(assoc) call per victim
 * selection) to be comparable at all.
 */

#ifndef OCCSIM_CHECK_REFERENCE_CACHE_HH
#define OCCSIM_CHECK_REFERENCE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/cache_stats.hh"
#include "trace/trace.hh"
#include "util/random.hh"

namespace occsim {

/**
 * Every counter a cache run produces, as plain public integers, plus
 * the derived metrics computed longhand from the paper's definitions.
 * Histograms are plain vectors indexed by value (word count or
 * touched-sub-block count).
 */
struct ReferenceStats
{
    std::uint64_t accesses = 0;        ///< counted (read) references
    std::uint64_t misses = 0;          ///< counted misses
    std::uint64_t blockMisses = 0;     ///< counted misses with tag absent
    std::uint64_t coldMisses = 0;      ///< counted never-filled-slot misses
    std::uint64_t ifetchAccesses = 0;
    std::uint64_t ifetchMisses = 0;
    std::uint64_t writeAccesses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t wordsFetched = 0;    ///< counted fetch traffic (words)
    std::uint64_t coldWords = 0;       ///< part of wordsFetched from cold misses
    std::uint64_t redundantWords = 0;  ///< re-fetched resident words
    std::uint64_t writeWords = 0;      ///< write-miss fetch traffic
    std::uint64_t storeWords = 0;      ///< write-through store traffic
    std::uint64_t writebackWords = 0;  ///< copy-back eviction traffic
    std::uint64_t prefetchWords = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t usefulPrefetches = 0;
    std::uint64_t bursts = 0;
    std::uint64_t evictions = 0;       ///< residencies ended

    /** burstWords[w] = counted bursts of exactly w words. */
    std::vector<std::uint64_t> burstWords;
    /** coldBurstWords[w] = cold-miss bursts of exactly w words. */
    std::vector<std::uint64_t> coldBurstWords;
    /** residencyTouched[k] = residencies that touched k sub-blocks. */
    std::vector<std::uint64_t> residencyTouched;

    // ---- derived metrics, straight from the paper's definitions ----
    /** misses / counted references. */
    double missRatio() const;
    /** Cold misses discounted from both numerator and denominator. */
    double warmMissRatio() const;
    /** Words fetched / counted references (each reference would move
     *  exactly one word without a cache). */
    double trafficRatio() const;
    double warmTrafficRatio() const;
    /** Nibble-mode pricing: a w-word burst costs 1 + (w-1)/ratio. */
    double nibbleTrafficRatio(double ratio = 3.0) const;
    double warmNibbleTrafficRatio(double ratio = 3.0) const;
    double ifetchMissRatio() const;
    double redundantLoadFraction() const;
    /** All bus words over all references including writes. */
    double totalTrafficRatio() const;
    double meanSubBlocksTouched() const;
    double neverReferencedFraction(std::uint32_t subs_per_block) const;
};

/**
 * Compare the oracle's totals against an engine's CacheStats,
 * counter by counter, histogram bucket by histogram bucket, and
 * derived double by derived double (the derived comparisons are
 * exact: both sides divide the same integers in the same order).
 * @return one human-readable line per mismatching field; empty when
 *         the run matches completely.
 */
std::vector<std::string> diffStats(const ReferenceStats &ref,
                                   const CacheStats &got);

/**
 * Compare two engine CacheStats for exact equality on every field an
 * engine-vs-engine equivalence promise covers (all counters, the
 * burst and residency histograms, and the derived metrics).
 * @return one line per mismatching field, prefixed with @p label.
 */
std::vector<std::string> diffCacheStats(const std::string &label,
                                        const CacheStats &a,
                                        const CacheStats &b);

/**
 * The oracle simulator. Feature-complete against Cache: sub-block
 * placement, all four fetch policies, write-through and copy-back,
 * write-allocate and no-allocate, LRU/FIFO/Random replacement, cold
 * tracking and residency accounting.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config);

    /** Simulate one reference. */
    void access(const MemRef &ref);

    /** Drain @p refs and finalize (one-shot convenience). */
    void run(const std::vector<MemRef> &refs);

    /** End-of-run residency accounting and dirty write-back. */
    void finalize();

    const ReferenceStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t subBlocksPerBlock() const { return numSubs_; }
    std::uint32_t wordsPerSubBlock() const { return wordsPerSub_; }

  private:
    /** One cache frame; every per-sub-block fact is a bool vector. */
    struct Frame
    {
        bool present = false;
        Addr tag = 0;
        std::vector<bool> valid;
        std::vector<bool> touched;
        std::vector<bool> dirty;
        std::vector<bool> prefetched;
    };

    // ---- address arithmetic, written out longhand ----
    Addr blockAddrOf(Addr addr) const { return addr / blockSize_; }
    std::uint32_t setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / blockSize_) %
                                          numSets_);
    }
    std::uint32_t subIndexOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr % blockSize_) /
                                          subBlockSize_);
    }

    /** Way holding @p block_addr in @p set, or -1. */
    int findWay(std::uint32_t set, Addr block_addr) const;

    /** Choose the frame a new block lands in (first empty way, else
     *  the policy victim). May consume the Random stream. */
    std::uint32_t chooseVictim(std::uint32_t set);

    /** LRU promotes on every access; FIFO and Random do not. */
    void noteAccess(std::uint32_t set, std::uint32_t way);
    /** LRU and FIFO move a filled way to most-protected. */
    void noteFill(std::uint32_t set, std::uint32_t way);

    /** Record one counted or write burst of @p sub_blocks sub-blocks. */
    void recordBurst(std::uint32_t sub_blocks, bool counted, bool cold,
                     std::uint32_t redundant_sub_blocks);

    /** Fetch policy applied to a missing @p sub_index of @p frame. */
    void fetchInto(Frame &frame, std::uint32_t set, std::uint32_t way,
                   std::uint32_t sub_index, bool counted, bool cold);

    /** End @p frame's residency: histogram + dirty write-back. */
    void endResidency(Frame &frame);

    /** Write back dirty sub-blocks of @p frame (copy-back). */
    void writebackDirty(Frame &frame);

    /** Smith-style one-sub-block-lookahead prefetch of the sub-block
     *  after the one holding @p miss_addr; suppressed when the target
     *  would wrap past the top of the address space. */
    void prefetchSequential(Addr miss_addr);

    CacheConfig config_;
    std::uint32_t blockSize_;
    std::uint32_t subBlockSize_;
    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t numSubs_;
    std::uint32_t wordsPerSub_;

    /** frames_[set][way]. */
    std::vector<std::vector<Frame>> frames_;
    /** everFilled_[set][way][sub]: slot filled since construction. */
    std::vector<std::vector<std::vector<bool>>> everFilled_;
    /** order_[set]: way ids, front = next victim, back = protected. */
    std::vector<std::vector<std::uint32_t>> order_;
    Rng randomVictims_;

    ReferenceStats stats_;
};

} // namespace occsim

#endif // OCCSIM_CHECK_REFERENCE_CACHE_HH
