/**
 * @file
 * The sub-block (sector) set-associative cache simulator — the core
 * model of this library.
 *
 * Address tags are associated with blocks; each block holds
 * blockSize/subBlockSize sub-blocks with individual valid bits, and
 * sub-blocks are the unit of memory transfer. With subBlockSize ==
 * blockSize this degenerates to a conventional cache; with one set it
 * is fully associative (the System/360 Model 85 sector cache is the
 * 16-way, 1024/64 instance).
 *
 * Semantics per reference:
 *  - Block hit + valid sub-block: hit.
 *  - Block hit + invalid sub-block: sub-block miss; fetch per policy.
 *  - Block miss: allocate a frame (invalid way first, else the
 *    replacement victim), clear all valid bits, fetch per policy.
 *
 * Fetch policies: demand (target sub-block only), load-forward
 * (target and all subsequent sub-blocks of the block, redundantly
 * re-fetching resident ones — the paper's simple scheme), and
 * optimized load-forward (skips resident sub-blocks; the paper's
 * "more complex" variant, provided for ablation).
 *
 * Writes are simulated for their effect on cache state but excluded
 * from the headline metrics, matching the paper's read-only
 * accounting. Both main-memory update policies are modelled:
 * write-through sends every store word to the bus; copy-back dirties
 * the sub-block and writes dirty sub-blocks back at eviction (see
 * CacheStats::totalTrafficRatio for the write-inclusive figure).
 */

#ifndef OCCSIM_CACHE_CACHE_HH
#define OCCSIM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/cache_geometry.hh"
#include "cache/cache_stats.hh"
#include "cache/replacement.hh"
#include "trace/packed_trace.hh"
#include "trace/trace.hh"

namespace occsim {

/** Outcome of one cache access (for tests and instrumentation). */
enum class AccessOutcome : std::uint8_t {
    Hit = 0,
    SubBlockMiss = 1,  ///< tag present, sub-block invalid
    BlockMiss = 2,     ///< tag absent
};

/** Trace-driven sub-block cache simulator. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return geom_.config(); }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }

    /** Simulate one reference: a one-record replayPacked() call,
     *  plus the outcome read off the frame state before it. */
    AccessOutcome access(const MemRef &ref);

    /**
     * Replay a span of packed records through the specialized kernel
     * selected for this configuration at construction (one
     * instantiation per fetch-policy x write-policy x write-allocate
     * x replacement-policy x associativity combination, so every
     * per-reference policy branch — including the LRU stamp update —
     * is resolved at compile time). Splitting a trace into spans of
     * any length, down to access()'s one record, leaves statistics,
     * replacement state and frame contents unchanged — the batched
     * engines rely on that bit-for-bit, and the differential fuzzer
     * checks every kernel against the independent ReferenceCache.
     * The counters every reference adds (accesses, ifetch accesses,
     * write accesses, write-through store words) are tallied per
     * call and added once at its end, so stats() is exact at the end
     * of each call, not part-way through one.
     * Does NOT finalize residencies; callers finalize after the last
     * span of a pass, exactly as with access().
     */
    void replayPacked(const PackedRecord *refs, std::size_t n);

    /**
     * Replay a span of packed records through the Record=false twin
     * of the replay kernel: tags, valid/dirty bits, cold-start
     * tracking, replacement order and RNG draws evolve EXACTLY as
     * replayPacked would evolve them, but no statistic is recorded.
     * This is the functional-warming primitive of the sampling
     * engine (SampleReplay): state moves forward at batched-kernel
     * speed between measurement units while the counters stand still.
     */
    void warmPacked(const PackedRecord *refs, std::size_t n);

    /** Zero the statistics without touching any cache state — the
     *  sampling engine brackets each measurement unit with this so
     *  stats() holds exactly that unit's counts. */
    void resetStats() { stats_.reset(); }

    /**
     * Replace the entire frame state with a warm snapshot (the
     * sampling engine's "live-point" checkpoint restore). @p mru
     * holds numSets rows of @p src_stride block addresses each, most
     * recently used first, padded with unfilled-slot sentinels
     * (~Addr(0)); rows must be dense (no sentinel before a real
     * address). Row s seeds set s: entry j becomes way j with every
     * sub-block valid, clean, untouched, and marked ever-filled, and
     * the replacement order is seeded to match the row's recency
     * (meaningful for LRU — checkpoints exist only for LRU configs).
     * Extra row entries beyond this cache's associativity are
     * ignored, so one maxAssoc-deep snapshot serves every
     * associativity below it (LRU stack inclusion). Statistics are
     * not touched.
     */
    void seedWarmState(const Addr *mru, std::uint32_t src_stride);

    /**
     * Drain @p source (up to @p max_refs references, 0 = all) and then
     * finalize residency statistics.
     * @return number of references simulated.
     */
    std::uint64_t run(TraceSource &source, std::uint64_t max_refs = 0);

    /**
     * Account still-resident blocks into the residency histogram and
     * flush remaining dirty sub-blocks (copy-back write-back traffic).
     * Called automatically by run(); call manually after a sequence of
     * access() calls if residency statistics are wanted.
     */
    void finalizeResidencies();

    /**
     * Invalidate every block, writing back dirty data first, and
     * account the residencies — the effect of a context switch on an
     * on-chip cache without address-space tags (caches of the paper's
     * era flushed on every switch). Statistics and cold-start
     * tracking survive: post-flush misses are *not* cold misses, they
     * are the task-switching cost.
     */
    void flush();

    /** Number of flush() calls since construction/reset. */
    std::uint64_t flushes() const { return flushes_; }

    /** Empty the cache and zero the statistics. */
    void reset();

    // ---- probes (tests and instrumentation) ----
    /** @return true if the sub-block containing @p addr is resident. */
    bool isResident(Addr addr) const;
    /** @return true if the block containing @p addr has a tag match. */
    bool isBlockResident(Addr addr) const;
    /** Valid-bit mask of the block containing @p addr (0 if absent). */
    std::uint64_t validMask(Addr addr) const;

  private:
    /**
     * Frame state is stored structure-of-arrays: the tag array holds
     * only the block addresses (with kNoTag marking an empty frame),
     * so the way scan — the one operation every single reference
     * performs — touches a dense array of 4-byte tags instead of
     * striding over 24-byte frame structs, and the per-sub-block
     * masks live in a parallel metadata array only read on the
     * hit/miss outcome paths.
     */
    struct FrameMeta
    {
        std::uint64_t valid = 0;    ///< per-sub-block valid bits
        std::uint64_t touched = 0;  ///< referenced during residency
        std::uint64_t dirty = 0;    ///< written since fill (copy-back)
        std::uint64_t prefetched = 0;  ///< filled by prefetch, unused
    };

    /** Tag value of an empty frame. Block addresses are 32-bit
     *  addresses shifted right by blockBits >= 1, so the all-ones
     *  value can never name a real block (validateConfig rejects
     *  blockSize 1). */
    static constexpr Addr kNoTag = ~Addr(0);

    bool framePresent(std::size_t frame_index) const
    {
        return tags_[frame_index] != kNoTag;
    }

    /** findWayIn over @p set's tag row: the way holding
     *  @p block_addr, or -1. @p A as there (0 = runtime value). */
    template <std::uint32_t A = 0>
    int findWay(std::uint32_t set, Addr block_addr) const;

    /** Perform the fetch policy @p F for a miss on @p sub_index of
     *  the frame at @p frame_index; @p counted is false for
     *  write-miss traffic, @p cold whether the triggering miss was
     *  cold. @p Record false elides every statistics update while
     *  leaving the state evolution (valid/ever-filled bits)
     *  untouched — the functional-warming twin used by
     *  warmPacked(). */
    template <FetchPolicy F, bool Record = true>
    void fetchIntoSpec(std::uint32_t frame_index,
                       std::uint32_t sub_index, bool counted,
                       bool cold);

    /** Emit one burst into the stats. */
    void emitBurst(std::uint32_t sub_blocks, bool counted, bool cold,
                   std::uint32_t redundant_sub_blocks);

    /** Account the copy-back write-back of @p meta's dirty bits. */
    void writebackDirty(FrameMeta &meta);

    /**
     * Claim the way of @p set that a new block fill will occupy —
     * the first invalid way, else the replacement victim — and retire
     * the previous residency (touched histogram + dirty write-back).
     * Shared by accessSpec() and prefetchSequentialSpec() so the
     * victim-selection sequence exists exactly once.
     * @return the claimed way.
     */
    template <ReplacementPolicy R, std::uint32_t A = 0,
              bool Record = true>
    std::uint32_t claimVictimSpec(std::uint32_t set);

    /** Sequentially prefetch the sub-block following the one that
     *  holds @p miss_addr (PrefetchNextOnMiss policy). A target past
     *  the top of the 32-bit address space has no sequential
     *  successor: the prefetch is suppressed instead of wrapping to
     *  address 0. @p R and @p A as for claimVictimSpec; @p Record
     *  false moves the same state without recording the prefetch,
     *  residency or write-back statistics. */
    template <ReplacementPolicy R, std::uint32_t A = 0,
              bool Record = true>
    void prefetchSequentialSpec(Addr miss_addr);

    /** One access with every policy branch resolved at compile time
     *  (the model's only per-reference step). @p A fixes the
     *  associativity at compile time when nonzero (0 = runtime),
     *  turning the way lookup into one match mask and unrolling the
     *  oldest-stamp victim scan for the common 1/2/4/8-way
     *  geometries.
     *  @p Record false strips every statistics update at compile time
     *  while evolving tags, valid/dirty bits, cold tracking, and
     *  replacement state (including RNG draws) bit-identically —
     *  warming a cache through the Record=false twin and then
     *  measuring must land it in exactly the state the recording
     *  kernel would have produced. With @p Record true it records
     *  only the miss-side counters: replayLoop adds the per-reference
     *  ones for the whole span. */
    template <FetchPolicy F, bool CopyBack, bool WriteAllocate,
              ReplacementPolicy R, std::uint32_t A, bool Record>
    void accessSpec(Addr addr, bool is_write, bool is_ifetch);

    /** Kernel: replay a packed span through accessSpec, tallying
     *  the span's reads, ifetch reads and writes on the way and
     *  adding them once at the end (CacheStats::addUniformAccesses),
     *  as the fused engine does per pass. */
    template <FetchPolicy F, bool CopyBack, bool WriteAllocate,
              ReplacementPolicy R, std::uint32_t A, bool Record>
    void replayLoop(const PackedRecord *refs, std::size_t n);

    using ReplayKernel = void (Cache::*)(const PackedRecord *,
                                         std::size_t);

    /** Dispatch-table lookup: the replayLoop instantiation for one
     *  policy combination (chosen once, at construction); @p record
     *  false selects the non-recording functional-warming twin. */
    static ReplayKernel selectKernel(FetchPolicy fetch, bool copy_back,
                                     bool write_allocate,
                                     ReplacementPolicy repl,
                                     std::uint32_t assoc, bool record);

    CacheGeometry geom_;
    // Hot-path copies of geometry fields, hoisted out of the
    // per-reference loop (accessSpec/findWay run once per trace
    // record; going through geom_ each time costs an extra
    // indirection per field). The policies are compiled into kernel_.
    std::uint32_t assoc_;
    std::uint32_t numSubs_;
    std::uint32_t wordsPerSub_;
    std::uint32_t subBlockSize_;
    ReplayKernel kernel_;
    ReplayKernel kernelWarm_;  ///< Record=false twin of kernel_
    ReplacementState repl_;
    CacheStats stats_;
    /** Block address per frame (kNoTag = empty); indexed
     *  set * assoc + way. */
    std::vector<Addr> tags_;
    /** Per-frame sub-block masks, parallel to tags_. */
    std::vector<FrameMeta> meta_;
    /** Per frame, per sub-block slot: ever filled since reset
     *  (cold-miss tracking). */
    std::vector<std::uint64_t> everFilled_;
    std::uint64_t flushes_ = 0;
};

} // namespace occsim

#endif // OCCSIM_CACHE_CACHE_HH
