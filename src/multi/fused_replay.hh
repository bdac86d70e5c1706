/**
 * @file
 * Fused sector-grid replay — engine 6 of the sweep stack.
 *
 * The paper's headline sweeps vary the SUB-BLOCK size and the fetch
 * policy over a fixed (sets, assoc, block) geometry. For every config
 * sharing that geometry (plus the replacement, write, and
 * write-allocate policies), the block-level state evolves
 * identically: whether a reference hits a resident BLOCK depends only
 * on the tag array, victim selection takes the first invalid way
 * (tags again) or the per-set LRU/FIFO order, and both the order
 * updates (onAccess on every block hit, onFill on every allocation)
 * and the allocation decisions (a no-allocate write block-miss skips
 * the fill) are sub-block-blind. So one tag array + one
 * ReplacementState can be simulated ONCE per group while each member
 * config only carries what actually differs: a per-frame plane of
 * 64-bit sub-block masks (valid / touched / dirty / ever-filled;
 * <= 64 sub-blocks per block covers the whole paper grid) and its own
 * CacheStats. Demand and load-forward fetch differ only in which mask
 * bits a miss sets and how the burst is counted, so every
 * (sub-block size x fetch policy) variant rides the same pass.
 *
 * Bit-identity contract: each config's CacheStats receives exactly
 * the recorder-call sequence Cache::accessSpec would have issued for
 * that config alone, in the same per-reference order, so the merged
 * summaries are bit-identical to direct simulation (the differential
 * fuzzer and bench_fused enforce this).
 *
 * Routing predicate (fusedEligible): the same set-local argument as
 * shardEligible — Random replacement shares one Rng across sets and
 * PrefetchNextOnMiss allocates into the sequentially-next block —
 * plus both break the shared-tag argument here (Random because the
 * fused pass would have to draw once for the whole group, which is
 * fine, but composing with set-sharding would not be; next-block
 * prefetch because the prefetch allocation depends on per-config
 * sub-block geometry, splitting the tag state across the group).
 *
 * Plane layout (all indexed so per-reference loops walk contiguous
 * memory): the touched and dirty masks depend only on WHICH
 * references land in a sub-block, not on the fetch policy, so they
 * are stored once per distinct sub-block SIZE (a "class") rather
 * than per config; the valid and ever-filled masks are per config
 * (fetch policies validate different spans). On top of those, a
 * per-(frame, grain) bitmask over the group's configs — one bit per
 * member, grain = the group's finest sub-block size — caches whether
 * each config's covering sub-block is valid, so the dominant path (a
 * reference whose sub-block is valid in every lane) tests the whole
 * group with a single load.
 *
 * Composes with set-sharding exactly like ShardReplay: construct with
 * num_shards > 1 and drive runShard(s, refs, n) per shard — every
 * config of the group is set-local, so per-shard group passes merge
 * exactly (CacheStats::mergeFrom is an exact integer merge).
 */

#ifndef OCCSIM_MULTI_FUSED_REPLAY_HH
#define OCCSIM_MULTI_FUSED_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/cache_stats.hh"
#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"

namespace occsim {

/** True when @p config can ride a fused group pass (and be set-
 *  sharded within it): non-Random replacement, no next-block
 *  prefetch. Same predicate as shardEligible — see the file comment
 *  for why both exclusions also matter here. */
bool fusedEligible(const CacheConfig &config);

/**
 * The grouping key: configs agreeing on every field share block-level
 * tag and replacement state (effective geometry — associativity
 * clamped to the block count — so nominally different configs that
 * degenerate to the same sets x ways grid fuse too). The write policy
 * and write-allocate flag do not influence the tag state directly,
 * but write-allocate changes WHICH references allocate and the write
 * policy selects the copy-back kernel, so both stay in the key.
 */
struct FusedKey
{
    std::uint32_t numSets = 0;
    std::uint32_t assoc = 0;
    std::uint32_t blockSize = 0;
    ReplacementPolicy replacement = ReplacementPolicy::LRU;
    WritePolicy write = WritePolicy::WriteThrough;
    bool writeAllocate = true;

    bool operator==(const FusedKey &) const = default;
};

/** Grouping key of @p config (which must be fusedEligible). */
FusedKey fusedKeyOf(const CacheConfig &config);

/** Most configs one fused pass can carry: the grain-validity planes
 *  address members through a 64-bit bitmask. fusedGroups splits
 *  larger key populations into several groups. */
inline constexpr std::size_t kMaxGroupConfigs = 64;

/**
 * Partition the fusedEligible members of @p candidates into fusable
 * groups (first-appearance order, so the grouping is deterministic;
 * keys with more than kMaxGroupConfigs members split). Ineligible
 * candidates are omitted entirely; groups of size one are returned
 * too — callers decide whether fusing a singleton is worth the plane
 * overhead (the sweep planner's fusableGroups leaves them batched).
 */
std::vector<std::vector<std::size_t>>
fusedGroups(const std::vector<CacheConfig> &configs,
            const std::vector<std::size_t> &candidates);

/**
 * One fused group run: block-level tag/replacement simulation once
 * per trace pass, per-config mask planes and counters for every
 * member. With num_shards > 1 the group is additionally set-sharded:
 * shard s owns the sets congruent to s and runShard(s, ...) only
 * touches shard s's state, so distinct shards run concurrently with
 * no synchronization (merging happens single-threaded afterwards).
 */
class FusedReplay
{
  public:
    /** All @p configs must be fusedEligible and share one FusedKey;
     *  @p num_shards must be 1 (unsharded) or planShardCount-valid
     *  (a power of two <= min(numSets, kMaxShards)). */
    explicit FusedReplay(const std::vector<CacheConfig> &configs,
                         std::uint32_t num_shards = 1);
    ~FusedReplay();

    std::size_t numConfigs() const { return configs_.size(); }
    const CacheConfig &config(std::size_t c) const
    {
        return configs_[c];
    }
    std::uint32_t numShards() const { return numShards_; }

    /** Unsharded drive (numShards() == 1): price @p n records for
     *  every member config in one pass and finalize residencies,
     *  exactly like one Cache::run pass per config. */
    void run(const PackedRecord *refs, std::size_t n);

    /** Replay the records of shard @p shard among the first @p n of
     *  @p refs (forEachShardChunk) through the group pass and
     *  finalize its residencies. */
    void runShard(std::size_t shard, const PackedRecord *refs,
                  std::size_t n);

    /** References replayed by @p shard so far (imbalance telemetry). */
    std::uint64_t shardRefs(std::size_t shard) const
    {
        return refs_[shard];
    }

    /** Member @p c's statistics, merged across shards (exact). */
    CacheStats mergedStats(std::size_t c) const;

    /** Member @p c's summary — bit-identical to a direct run. */
    SweepResult result(std::size_t c) const;

    /** All member summaries, in construction order. */
    std::vector<SweepResult> results() const;

  private:
    class Pass;

    std::vector<CacheConfig> configs_;
    std::uint32_t blockBits_ = 0;
    std::uint32_t shardBits_ = 0;
    std::uint32_t numShards_ = 1;
    std::vector<std::uint64_t> grossBytes_;  ///< per config
    std::vector<std::unique_ptr<Pass>> passes_;  ///< one per shard
    std::vector<std::uint64_t> refs_;  ///< per shard
};

} // namespace occsim

#endif // OCCSIM_MULTI_FUSED_REPLAY_HH
