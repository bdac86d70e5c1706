/**
 * @file
 * Config-blocked batched replay over a trace's record span.
 *
 * The direct sweep engine streams the whole trace through one Cache
 * at a time: every configuration pays one full pass of trace memory
 * traffic plus the per-reference decode and policy branches of
 * Cache::access(). BatchReplay restructures that loop around the
 * memory system instead of around the configs:
 *
 *  - configurations are grouped into tiles of K caches, and the
 *    trace is streamed chunk by chunk — every chunk (256 KB by
 *    default, comfortably L2-resident) is replayed through all K
 *    caches of the tile before the next chunk is touched, so the
 *    trace is read from DRAM once per tile instead of once per
 *    config;
 *  - a PackedRecord span (a PackedTrace or a mapped corpus file)
 *    replays in place; a MemRef span (a VectorTrace) is packed one
 *    chunk at a time into a buffer private to the tile, so the pack
 *    costs one pass per tile and no whole-trace copy is made;
 *  - each cache replays through Cache::replayPacked, the kernel
 *    specialized at construction for its (fetch x write x
 *    write-allocate) policy combination, so the per-reference policy
 *    switches are gone from the inner loop.
 *
 * Results are bit-identical to running Cache::access over the same
 * references in order — tiles and chunks change only the interleaving
 * BETWEEN independent caches, never the reference order seen by any
 * one cache. Tiles share no mutable state, so runTile() calls for
 * different tiles may run on different threads (that is how the
 * sweep planner's executor schedules them).
 */

#ifndef OCCSIM_MULTI_BATCH_REPLAY_HH
#define OCCSIM_MULTI_BATCH_REPLAY_HH

#include <memory>
#include <vector>

#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"

namespace occsim {

/** Batched multi-configuration replay of record spans. */
class BatchReplay
{
  public:
    /** Configs per tile: 8 caches per trace chunk keeps the chunk hot
     *  in L2 across the tile without blowing the per-cache state out
     *  of cache. */
    static constexpr std::size_t kDefaultTileConfigs = 8;
    /** Records per chunk: 32768 x 8 B = 256 KB of trace per block. */
    static constexpr std::size_t kDefaultChunkRecords = 32768;

    /**
     * @param configs one result slot per entry.
     * @param tile_configs caches simulated per trace chunk.
     * @param chunk_records records replayed per chunk (the
     *        differential fuzzer uses deliberately awkward values
     *        like 7 to exercise chunk-boundary handling).
     */
    explicit BatchReplay(
        const std::vector<CacheConfig> &configs,
        std::size_t tile_configs = kDefaultTileConfigs,
        std::size_t chunk_records = kDefaultChunkRecords);

    std::size_t size() const { return caches_.size(); }
    std::size_t numTiles() const { return numTiles_; }

    /**
     * Replay the @p n records of @p refs (MemRef or PackedRecord)
     * through every cache of tile @p tile and finalize their
     * residencies. Tiles are independent; callers may run them
     * concurrently over one shared span. Repeated passes accumulate
     * as if the traces were concatenated (same contract as
     * Cache::run).
     */
    template <class Rec>
    void runTile(std::size_t tile, const Rec *refs, std::size_t n);

    /** Replay @p refs through every tile in order (the sequential
     *  driver; sweeps schedule runTile themselves). */
    template <class Rec>
    void run(const Rec *refs, std::size_t n)
    {
        for (std::size_t tile = 0; tile < numTiles_; ++tile)
            runTile(tile, refs, n);
    }

    const Cache &cache(std::size_t i) const { return *caches_[i]; }
    Cache &cache(std::size_t i) { return *caches_[i]; }

    /** Summaries in config order. */
    std::vector<SweepResult> results() const;

  private:
    std::size_t tileConfigs_;
    std::size_t chunkRecords_;
    std::size_t numTiles_;
    std::vector<std::unique_ptr<Cache>> caches_;
};

} // namespace occsim

#endif // OCCSIM_MULTI_BATCH_REPLAY_HH
