/**
 * @file
 * Measurement collected by a cache simulation run.
 *
 * Following the paper's methodology (Section 3.2):
 *
 *  - Headline metrics (miss ratio, traffic ratio) are computed over
 *    data reads and instruction fetches only; writes are simulated
 *    (they disturb cache state) but tallied separately so write-back
 *    policy questions stay out of the results.
 *  - The traffic ratio is bus traffic with the cache divided by bus
 *    traffic without it; without a cache every reference moves exactly
 *    one data-path word, so the denominator is the counted access
 *    count and the numerator is total words fetched.
 *  - Warm-start figures discount cold-start misses: a miss whose
 *    target sub-block frame slot had never been filled since the start
 *    of simulation is a cold miss, and its traffic is discounted with
 *    it.
 *  - The burst-size histogram lets any BusModel (linear, nibble-mode,
 *    transactional) price the same run after the fact, producing the
 *    paper's "scaled traffic ratio" without re-simulation.
 *  - The residency histogram counts how many sub-blocks of a block
 *    were referenced during one residency (the paper's "72 percent of
 *    sub-blocks never referenced" measurement for the 360/85).
 */

#ifndef OCCSIM_CACHE_CACHE_STATS_HH
#define OCCSIM_CACHE_CACHE_STATS_HH

#include <cstdint>
#include <iosfwd>

#include "mem/bus_model.hh"
#include "stats/distribution.hh"

namespace occsim {

/** Statistics for one cache simulation run. */
class CacheStats
{
  public:
    /**
     * @param sub_blocks_per_block sizes the residency histogram.
     * @param max_burst_words sizes the burst histogram.
     */
    CacheStats(std::uint32_t sub_blocks_per_block,
               std::uint32_t max_burst_words);

    // ---- recording interface (used by Cache) ----
    // The counter-only recorders are defined inline: they run once
    // per reference (hit path included), and an out-of-line call here
    // would both cost the call and force the replay kernels to spill
    // and reload their loop state around an opaque function.
    void recordHit(bool is_ifetch)
    {
        ++accesses_;
        if (is_ifetch)
            ++ifetchAccesses_;
    }
    void recordMiss(bool is_ifetch, bool block_miss, bool cold)
    {
        ++accesses_;
        ++misses_;
        if (block_miss)
            ++blockMisses_;
        if (cold)
            ++coldMisses_;
        if (is_ifetch) {
            ++ifetchAccesses_;
            ++ifetchMisses_;
        }
    }
    void recordWrite(bool hit)
    {
        ++writeAccesses_;
        if (!hit)
            ++writeMisses_;
    }
    /**
     * Bulk-add the counters that are the same for every reference of
     * a replayed span regardless of hit or miss: each counted read
     * adds one access (recordHit and recordMiss both do), each
     * instruction fetch one ifetch access, each write one write
     * access. The fused engine tallies these once per pass instead of
     * per (reference, config) — integer sums, so the totals are
     * bit-identical to per-reference recording.
     */
    void addUniformAccesses(std::uint64_t counted_reads,
                            std::uint64_t ifetch_reads,
                            std::uint64_t writes,
                            std::uint64_t write_misses,
                            std::uint64_t store_words)
    {
        accesses_ += counted_reads;
        ifetchAccesses_ += ifetch_reads;
        writeAccesses_ += writes;
        writeMisses_ += write_misses;
        storeWords_ += store_words;
    }
    /** The miss-side counters of recordMiss, for callers that account
     *  the access-side counters via addUniformAccesses. */
    void recordMissCounters(bool is_ifetch, bool block_miss, bool cold)
    {
        ++misses_;
        if (block_miss)
            ++blockMisses_;
        if (cold)
            ++coldMisses_;
        if (is_ifetch)
            ++ifetchMisses_;
    }
    /** The miss side of recordWrite(false), same split. */
    void recordWriteMissCounter() { ++writeMisses_; }
    /** recordMissCounters for a read, recordWriteMissCounter for a
     *  write, chosen without a branch. */
    void recordMissSide(bool is_write, bool is_ifetch, bool block_miss,
                        bool cold)
    {
        const std::uint64_t read = is_write ? 0 : 1;
        misses_ += read;
        blockMisses_ += read & block_miss;
        coldMisses_ += read & cold;
        ifetchMisses_ += read & is_ifetch;
        writeMisses_ += read ^ 1;
    }
    /** A counted burst of @p words words; @p cold when triggered by a
     *  cold miss; @p redundant_words of them re-fetched valid data. */
    void recordBurst(std::uint32_t words, bool cold,
                     std::uint32_t redundant_words)
    {
        wordsFetched_ += words;
        redundantWords_ += redundant_words;
        ++bursts_;
        burstWords_.sample(words);
        if (cold) {
            coldWords_ += words;
            coldBurstWords_.sample(words);
        }
    }
    /** Bus traffic caused by write misses (kept out of headline). */
    void recordWriteBurst(std::uint32_t words) { writeWords_ += words; }
    /** Store traffic: words sent to memory by write-through stores
     *  (or by non-allocated write misses). */
    void recordStoreTraffic(std::uint32_t words)
    {
        storeWords_ += words;
    }
    /** Copy-back traffic: dirty sub-block words written at eviction. */
    void recordWriteback(std::uint32_t words)
    {
        writebackWords_ += words;
    }
    /** A prefetch moved @p words words (counts into traffic). */
    void recordPrefetch(std::uint32_t words)
    {
        // Prefetch traffic is real bus traffic: it belongs in the
        // headline traffic ratio (the cost side of prefetching).
        wordsFetched_ += words;
        ++bursts_;
        burstWords_.sample(words);
        prefetchWords_ += words;
        ++prefetches_;
    }
    /** A previously prefetched, never-referenced sub-block was hit. */
    void recordUsefulPrefetch() { ++usefulPrefetches_; }
    /** A block residency ended having touched @p touched sub-blocks. */
    void recordResidency(std::uint32_t touched)
    {
        ++evictions_;
        residencyTouched_.sample(touched);
    }

    void reset();

    /**
     * Accumulate another run's counters into this one. Every field of
     * CacheStats is an integer sum over the references that produced
     * it (the histograms included), so merging the per-shard stats of
     * a set-sharded replay is exact: derived ratios computed from the
     * merged totals are bit-identical to an unsharded run. Both sides
     * must describe the same cache geometry.
     */
    void mergeFrom(const CacheStats &other);

    // ---- raw counters ----
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t hits() const { return accesses_ - misses_; }
    std::uint64_t blockMisses() const { return blockMisses_; }
    std::uint64_t subBlockMisses() const
    {
        return misses_ - blockMisses_;
    }
    std::uint64_t coldMisses() const { return coldMisses_; }
    std::uint64_t ifetchAccesses() const { return ifetchAccesses_; }
    std::uint64_t ifetchMisses() const { return ifetchMisses_; }
    std::uint64_t writeAccesses() const { return writeAccesses_; }
    std::uint64_t writeMisses() const { return writeMisses_; }
    std::uint64_t wordsFetched() const { return wordsFetched_; }
    std::uint64_t coldWordsFetched() const { return coldWords_; }
    std::uint64_t redundantWordsFetched() const
    {
        return redundantWords_;
    }
    std::uint64_t writeWordsFetched() const { return writeWords_; }
    std::uint64_t storeWords() const { return storeWords_; }
    std::uint64_t writebackWords() const { return writebackWords_; }
    std::uint64_t prefetchWords() const { return prefetchWords_; }
    std::uint64_t prefetches() const { return prefetches_; }
    std::uint64_t usefulPrefetches() const { return usefulPrefetches_; }
    /** Fraction of prefetched sub-blocks later referenced. */
    double prefetchAccuracy() const;
    std::uint64_t bursts() const { return bursts_; }
    std::uint64_t evictions() const { return evictions_; }

    // ---- derived metrics ----
    /** Cold-start miss ratio (counted refs). */
    double missRatio() const;
    /** Warm-start miss ratio: cold misses discounted. */
    double warmMissRatio() const;
    /** Traffic ratio on a linear bus. */
    double trafficRatio() const;
    /** Warm-start traffic ratio. */
    double warmTrafficRatio() const;
    /** Traffic ratio priced by an arbitrary bus model. */
    double scaledTrafficRatio(const BusModel &bus) const;
    /** Warm-start scaled traffic ratio. */
    double warmScaledTrafficRatio(const BusModel &bus) const;
    /** Instruction-fetch miss ratio. */
    double ifetchMissRatio() const;
    /** Fraction of fetched words that re-fetched resident data. */
    double redundantLoadFraction() const;
    /**
     * Write-inclusive traffic ratio: all bus words (read fetches,
     * write-miss fetches, stores, write-backs) over all references
     * including writes. The paper's headline traffic ratio excludes
     * writes; this is the figure a write-through vs copy-back study
     * needs.
     */
    double totalTrafficRatio() const;
    /** Mean sub-blocks referenced per block residency. */
    double meanSubBlocksTouched() const;
    /** Fraction of sub-block frames never referenced per residency. */
    double neverReferencedFraction() const;

    const Distribution &residencyTouched() const
    {
        return residencyTouched_;
    }
    const Distribution &burstWords() const { return burstWords_; }
    /** Burst histogram restricted to cold-miss bursts (the warm
     *  scaled-traffic discount; exposed for the differential
     *  oracle's full-stats comparison). */
    const Distribution &coldBurstWords() const
    {
        return coldBurstWords_;
    }

    /** Human-readable dump of counters and derived metrics. */
    void dump(std::ostream &os) const;

  private:
    std::uint32_t subBlocksPerBlock_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t blockMisses_ = 0;
    std::uint64_t coldMisses_ = 0;
    std::uint64_t ifetchAccesses_ = 0;
    std::uint64_t ifetchMisses_ = 0;
    std::uint64_t writeAccesses_ = 0;
    std::uint64_t writeMisses_ = 0;
    std::uint64_t wordsFetched_ = 0;
    std::uint64_t coldWords_ = 0;
    std::uint64_t redundantWords_ = 0;
    std::uint64_t writeWords_ = 0;
    std::uint64_t storeWords_ = 0;
    std::uint64_t writebackWords_ = 0;
    std::uint64_t prefetchWords_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t usefulPrefetches_ = 0;
    std::uint64_t bursts_ = 0;
    std::uint64_t evictions_ = 0;

    Distribution residencyTouched_;
    Distribution burstWords_;
    Distribution coldBurstWords_;
};

} // namespace occsim

#endif // OCCSIM_CACHE_CACHE_STATS_HH
