/**
 * @file
 * User-facing cache configuration (Table 1 of the paper).
 *
 * A configuration names the design point: net (data) size, block size
 * (bytes per address tag), sub-block size (bytes per memory transfer
 * and per valid bit), associativity, replacement policy, and fetch
 * policy. Validation and all derived address arithmetic live in
 * CacheGeometry.
 */

#ifndef OCCSIM_CACHE_CACHE_CONFIG_HH
#define OCCSIM_CACHE_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

namespace occsim {

/** Replacement policy for a set. */
enum class ReplacementPolicy : std::uint8_t {
    LRU = 0,     ///< least recently used (the paper's choice)
    FIFO = 1,    ///< first in, first out
    Random = 2,  ///< uniform random victim
};

const char *replacementPolicyName(ReplacementPolicy policy);

/** Fetch policy on a miss. */
enum class FetchPolicy : std::uint8_t {
    /** Fetch only the missing sub-block (the paper's default). */
    Demand = 0,
    /**
     * Fetch the missing sub-block and all subsequent sub-blocks of the
     * block, re-fetching any that are already resident (the paper's
     * simple "redundant-load" scheme, as in the Zilog Z80,000).
     */
    LoadForward = 1,
    /**
     * Load-forward that remembers resident sub-blocks and fetches only
     * the invalid ones (the paper's "optimized" variant, mentioned but
     * not adopted; we implement it for the ablation study).
     */
    LoadForwardOptimized = 2,
    /**
     * Demand fetch plus one-sub-block-lookahead sequential prefetch
     * on miss (Smith 1978, the paper's reference [11]; prefetch
     * studies were declared beyond the paper's scope — provided as
     * an extension). The prefetch may cross into the sequentially
     * next block, allocating it. A miss on the last sub-block of the
     * address space has no sequential successor; the prefetch is
     * suppressed rather than wrapping around to address 0.
     */
    PrefetchNextOnMiss = 3,
};

const char *fetchPolicyName(FetchPolicy policy);

/**
 * Main-memory update policy (Section 3.2 lists "methods of updating
 * main memory" among the performance-relevant design choices; the
 * paper filters writes out of its metrics and flags write-through vs
 * copy-back as further study — occsim models both).
 */
enum class WritePolicy : std::uint8_t {
    /** Every store is sent to memory immediately (one word). */
    WriteThrough = 0,
    /** Stores dirty the sub-block; dirty sub-blocks are written back
     *  at eviction. */
    CopyBack = 1,
};

const char *writePolicyName(WritePolicy policy);

/**
 * Cache organization: one unified cache serving both streams, or a
 * split pair (instruction cache + data cache, each of half the net
 * size) routed by MemRef::isInstruction(). Section 3.2 lists the
 * split-vs-unified question among the design choices. A split config
 * is simulated as two plain unified caches of its evenSplitHalf, one
 * fed the instruction fetches and one the data references; their
 * statistics sum into the config's one summary.
 */
enum class CachePartition : std::uint8_t {
    Unified = 0,
    SplitID = 1,  ///< even I/D split (netSize/2 each)
};

const char *cachePartitionName(CachePartition partition);

/** Full description of one cache design point. */
struct CacheConfig
{
    /** Net cache size: data bytes only (the paper's "cache size"). */
    std::uint32_t netSize = 1024;

    /** Block (line/sector) size: bytes per address tag. */
    std::uint32_t blockSize = 16;

    /** Sub-block size: bytes per transfer and per valid bit. */
    std::uint32_t subBlockSize = 8;

    /**
     * Requested associativity. The effective associativity is clamped
     * to the number of blocks when the cache is too small for a full
     * set (e.g. a 32-byte cache with 16-byte blocks is 2-way).
     */
    std::uint32_t assoc = 4;

    /** Data-path width in bytes: 2 (PDP-11, Z8000) or 4 (VAX, S/370). */
    std::uint32_t wordSize = 2;

    /** Address bits used for tag-cost accounting (paper assumes 32). */
    std::uint32_t addressBits = 32;

    ReplacementPolicy replacement = ReplacementPolicy::LRU;
    FetchPolicy fetch = FetchPolicy::Demand;
    WritePolicy write = WritePolicy::WriteThrough;

    /** Allocate and fetch on write misses (write-allocate). */
    bool writeAllocate = true;

    /** Unified vs split I/D organization. SplitID halves netSize per
     *  side, so it requires netSize >= 2 * blockSize. */
    CachePartition partition = CachePartition::Unified;

    /** Seed for the Random replacement policy. */
    std::uint64_t randomSeed = 1;

    /** Short label in the paper's style, e.g. "16,8" or "16,2,LF". */
    std::string shortName() const;

    /** Longer label including net size, e.g. "1024B 16,8 4-way LRU". */
    std::string fullName() const;

    bool operator==(const CacheConfig &other) const = default;
};

/**
 * One side of an even split of @p mixed_config: half the net size,
 * same geometry otherwise, partition tag cleared (each side is an
 * ordinary unified cache — the SplitID tag belongs to the pair).
 */
CacheConfig evenSplitHalf(const CacheConfig &mixed_config);

/**
 * Convenience builder for the paper's standard sweep entries:
 * 4-way LRU demand-fetch with the given sizes.
 */
CacheConfig makeConfig(std::uint32_t net_size, std::uint32_t block_size,
                       std::uint32_t sub_block_size,
                       std::uint32_t word_size);

/** The IBM System/360 Model 85 sector cache: 16 fully-associative
 *  1024-byte blocks with 64-byte sub-blocks (16 KB net). */
CacheConfig make360Model85Config(std::uint32_t word_size = 4);

} // namespace occsim

#endif // OCCSIM_CACHE_CACHE_CONFIG_HH
