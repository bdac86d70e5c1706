/**
 * @file
 * Unit tests for the core sub-block cache model: access outcomes,
 * valid-bit semantics, LRU eviction, write handling, cold/warm
 * accounting, the exact traffic identity, and the paper's
 * monotonicity properties over the design grid.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "check/reference_cache.hh"
#include "workload/synthetic.hh"

using namespace occsim;

namespace {

MemRef
read(Addr addr)
{
    return MemRef{addr, RefKind::DataRead, 2};
}

MemRef
write(Addr addr)
{
    return MemRef{addr, RefKind::DataWrite, 2};
}

/** A mixed stream over a 4 KB footprint: ifetches, reads and writes
 *  that hit, sub-block miss, block miss and evict in a 256 B cache. */
std::vector<MemRef>
mixedRefs(std::size_t n)
{
    std::vector<MemRef> refs;
    refs.reserve(n);
    std::uint32_t x = 12345;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 1103515245u + 12345u;
        const Addr addr = ((x >> 8) % 2048) * 2;
        const RefKind kind = (x >> 28) < 5    ? RefKind::Ifetch
                             : (x >> 28) < 11 ? RefKind::DataRead
                                              : RefKind::DataWrite;
        refs.push_back(MemRef{addr, kind, 2});
    }
    return refs;
}

std::vector<PackedRecord>
packAll(const std::vector<MemRef> &refs)
{
    std::vector<PackedRecord> out;
    out.reserve(refs.size());
    for (const MemRef &ref : refs)
        out.push_back(PackedRecord::pack(ref));
    return out;
}

} // namespace

TEST(Cache, HitMissOutcomes)
{
    // 64B cache, 16B blocks, 4B sub-blocks, fully assoc (4 blocks).
    Cache cache(makeConfig(64, 16, 4, 2));

    EXPECT_EQ(cache.access(read(0x100)), AccessOutcome::BlockMiss);
    EXPECT_EQ(cache.access(read(0x102)), AccessOutcome::Hit)
        << "same sub-block word";
    EXPECT_EQ(cache.access(read(0x104)), AccessOutcome::SubBlockMiss)
        << "same block, next sub-block";
    EXPECT_EQ(cache.access(read(0x104)), AccessOutcome::Hit);
    EXPECT_EQ(cache.access(read(0x110)), AccessOutcome::BlockMiss)
        << "next block";

    EXPECT_EQ(cache.stats().accesses(), 5u);
    EXPECT_EQ(cache.stats().misses(), 3u);
    EXPECT_EQ(cache.stats().blockMisses(), 2u);
    EXPECT_EQ(cache.stats().subBlockMisses(), 1u);
}

TEST(Cache, DemandFetchLoadsOnlyMissingSubBlock)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(read(0x104));  // sub-block 1 of block 0x10
    EXPECT_TRUE(cache.isBlockResident(0x100));
    EXPECT_TRUE(cache.isResident(0x104));
    EXPECT_FALSE(cache.isResident(0x100));
    EXPECT_FALSE(cache.isResident(0x108));
    EXPECT_FALSE(cache.isResident(0x10C));
    EXPECT_EQ(cache.validMask(0x100), 0b0010u);
}

TEST(Cache, LruEvictionInSet)
{
    // 4 blocks, fully associative: fifth distinct block evicts the
    // least recently used.
    Cache cache(makeConfig(64, 16, 16, 2));
    cache.access(read(0x000));
    cache.access(read(0x010));
    cache.access(read(0x020));
    cache.access(read(0x030));
    cache.access(read(0x000));  // protect block 0
    cache.access(read(0x040));  // evicts 0x010
    EXPECT_TRUE(cache.isResident(0x000));
    EXPECT_FALSE(cache.isBlockResident(0x010));
    EXPECT_TRUE(cache.isResident(0x020));
    EXPECT_TRUE(cache.isResident(0x040));
    EXPECT_EQ(cache.stats().evictions(), 1u);
}

TEST(Cache, SetIndexingSeparatesConflicts)
{
    // 128B, 16B blocks, 4-way -> 2 sets; blocks alternate sets.
    Cache cache(makeConfig(128, 16, 16, 2));
    // Blocks 0x00,0x20,0x40,0x60,0x80 all map to set 0.
    for (Addr addr : {0x00u, 0x20u, 0x40u, 0x60u})
        cache.access(read(addr));
    // Set 1 is untouched; a block in set 1 must not evict set 0.
    cache.access(read(0x10));
    for (Addr addr : {0x00u, 0x20u, 0x40u, 0x60u})
        EXPECT_TRUE(cache.isResident(addr)) << std::hex << addr;
    // A fifth set-0 block evicts the LRU set-0 block only.
    cache.access(read(0x80));
    EXPECT_FALSE(cache.isBlockResident(0x00));
    EXPECT_TRUE(cache.isResident(0x10));
}

TEST(Cache, WritesUpdateStateButNotHeadlineStats)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(write(0x100));
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_EQ(cache.stats().writeAccesses(), 1u);
    EXPECT_EQ(cache.stats().writeMisses(), 1u);
    EXPECT_EQ(cache.stats().wordsFetched(), 0u)
        << "write traffic out of headline";
    EXPECT_GT(cache.stats().writeWordsFetched(), 0u);

    // The write-allocated sub-block now hits for reads.
    EXPECT_EQ(cache.access(read(0x100)), AccessOutcome::Hit);
    EXPECT_EQ(cache.stats().accesses(), 1u);
    EXPECT_EQ(cache.stats().misses(), 0u);
}

TEST(Cache, NoWriteAllocateOption)
{
    CacheConfig config = makeConfig(64, 16, 4, 2);
    config.writeAllocate = false;
    Cache cache(config);
    cache.access(write(0x100));
    EXPECT_FALSE(cache.isBlockResident(0x100));
    EXPECT_EQ(cache.stats().writeMisses(), 1u);
    // A write to a resident sub-block is a write hit.
    cache.access(read(0x100));
    cache.access(write(0x100));
    EXPECT_EQ(cache.stats().writeMisses(), 1u);
    EXPECT_EQ(cache.stats().writeAccesses(), 2u);
}

TEST(Cache, TrafficIdentityDemandFetch)
{
    // With demand fetch, every counted miss moves exactly one
    // sub-block: traffic ratio == miss ratio * sub / word, exactly.
    for (const std::uint32_t sub : {2u, 4u, 8u, 16u}) {
        SyntheticParams params;
        params.seed = 31 + sub;
        SyntheticSource source(params);
        Cache cache(makeConfig(256, 16, sub, 2));
        cache.run(source, 20000);
        const double expected = cache.stats().missRatio() *
                                static_cast<double>(sub) / 2.0;
        EXPECT_NEAR(cache.stats().trafficRatio(), expected, 1e-12)
            << "sub-block " << sub;
    }
}

TEST(Cache, ColdMissesBoundedByFrames)
{
    SyntheticParams params;
    Cache cache(makeConfig(256, 16, 4, 2));
    SyntheticSource source(params);
    cache.run(source, 50000);
    const std::uint64_t frame_slots =
        cache.geometry().numBlocks() *
        cache.geometry().subBlocksPerBlock();
    EXPECT_LE(cache.stats().coldMisses(), frame_slots);
    EXPECT_LE(cache.stats().warmMissRatio(),
              cache.stats().missRatio() + 1e-12);
}

TEST(Cache, RepeatedTraceSecondPassHasNoColdMisses)
{
    // A tiny loop that fits: after the first pass everything hits.
    Cache cache(makeConfig(64, 16, 4, 2));
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr addr = 0; addr < 64; addr += 2)
            cache.access(read(addr));
    }
    // 16 sub-blocks cold-filled, then everything hits.
    EXPECT_EQ(cache.stats().misses(), 16u);
    EXPECT_EQ(cache.stats().coldMisses(), 16u);
    EXPECT_DOUBLE_EQ(cache.stats().warmMissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(cache.stats().warmTrafficRatio(), 0.0);
}

TEST(Cache, ResidencyDistributionTracksTouchedSubBlocks)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    // Touch 2 of 4 sub-blocks of one block, then finalize.
    cache.access(read(0x100));
    cache.access(read(0x104));
    cache.finalizeResidencies();
    EXPECT_EQ(cache.stats().evictions(), 1u);
    EXPECT_EQ(cache.stats().residencyTouched().bucket(2), 1u);
    EXPECT_DOUBLE_EQ(cache.stats().meanSubBlocksTouched(), 2.0);
    EXPECT_DOUBLE_EQ(cache.stats().neverReferencedFraction(), 0.5);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(read(0x100));
    cache.reset();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_FALSE(cache.isBlockResident(0x100));
    EXPECT_EQ(cache.access(read(0x100)), AccessOutcome::BlockMiss);
    EXPECT_EQ(cache.stats().coldMisses(), 1u)
        << "cold tracking restarts after reset";
}

TEST(Cache, FlushInvalidatesButKeepsStats)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(read(0x100));
    cache.access(read(0x100));
    EXPECT_EQ(cache.stats().accesses(), 2u);

    cache.flush();
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_FALSE(cache.isBlockResident(0x100));
    EXPECT_EQ(cache.stats().accesses(), 2u) << "stats survive";

    // The re-fetch after the flush is a miss but NOT a cold miss:
    // it is the context-switch penalty.
    EXPECT_EQ(cache.access(read(0x100)), AccessOutcome::BlockMiss);
    EXPECT_EQ(cache.stats().coldMisses(), 1u)
        << "only the original first touch was cold";
}

TEST(Cache, FlushWritesBackDirtyData)
{
    CacheConfig config = makeConfig(64, 16, 4, 2);
    config.write = WritePolicy::CopyBack;
    Cache cache(config);
    cache.access(write(0x100));
    EXPECT_EQ(cache.stats().writebackWords(), 0u);
    cache.flush();
    EXPECT_EQ(cache.stats().writebackWords(), 2u);
}

TEST(Cache, FlushAccountsResidencies)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(read(0x100));
    cache.flush();
    EXPECT_EQ(cache.stats().evictions(), 1u);
}

TEST(Cache, MissRatioMonotoneInCacheSize)
{
    SyntheticParams params;
    params.seed = 99;
    const VectorTrace trace = makeSyntheticTrace(params, 60000);

    double prev = 1.1;
    for (const std::uint32_t net : {32u, 64u, 128u, 256u, 512u, 1024u}) {
        Cache cache(makeConfig(net, 16, 8, 2));
        VectorTrace copy = trace;
        cache.run(copy);
        EXPECT_LE(cache.stats().missRatio(), prev + 1e-9)
            << "net " << net;
        prev = cache.stats().missRatio();
    }
}

TEST(Cache, SmallerSubBlocksRaiseMissLowerTraffic)
{
    SyntheticParams params;
    params.seed = 123;
    const VectorTrace trace = makeSyntheticTrace(params, 60000);

    double prev_miss = -1.0;
    double prev_traffic = 1e9;
    // Sweep sub-block from block size down to one word.
    for (const std::uint32_t sub : {16u, 8u, 4u, 2u}) {
        Cache cache(makeConfig(512, 16, sub, 2));
        VectorTrace copy = trace;
        cache.run(copy);
        EXPECT_GE(cache.stats().missRatio(), prev_miss - 1e-9)
            << "sub " << sub;
        EXPECT_LE(cache.stats().trafficRatio(), prev_traffic + 1e-9)
            << "sub " << sub;
        prev_miss = cache.stats().missRatio();
        prev_traffic = cache.stats().trafficRatio();
    }
}

TEST(Cache, OneWordSubBlockTrafficNeverExceedsOne)
{
    // "Caches with a sub-block size of 1 word will always have
    // traffic ratios less than or equal to 1.0."
    SyntheticParams params;
    params.seed = 7;
    SyntheticSource source(params);
    Cache cache(makeConfig(32, 16, 2, 2));
    cache.run(source, 30000);
    EXPECT_LE(cache.stats().trafficRatio(), 1.0);
}

TEST(Cache, SubBlockEqualsBlockIsConventionalCache)
{
    // With sub == block there are no sub-block misses at all.
    SyntheticParams params;
    SyntheticSource source(params);
    Cache cache(makeConfig(256, 16, 16, 2));
    cache.run(source, 30000);
    EXPECT_EQ(cache.stats().subBlockMisses(), 0u);
}

TEST(Cache, IfetchStatsTracked)
{
    Cache cache(makeConfig(64, 16, 4, 2));
    cache.access(MemRef{0x100, RefKind::Ifetch, 2});
    cache.access(MemRef{0x100, RefKind::Ifetch, 2});
    cache.access(read(0x200));
    EXPECT_EQ(cache.stats().ifetchAccesses(), 2u);
    EXPECT_EQ(cache.stats().ifetchMisses(), 1u);
    EXPECT_DOUBLE_EQ(cache.stats().ifetchMissRatio(), 0.5);
}

TEST(Cache, RunRespectsMaxRefs)
{
    SyntheticParams params;
    SyntheticSource source(params);
    Cache cache(makeConfig(64, 16, 4, 2));
    EXPECT_EQ(cache.run(source, 1234), 1234u);
    EXPECT_EQ(cache.stats().accesses() + cache.stats().writeAccesses(),
              1234u);
}

TEST(Cache, ReplayPackedSpansMatchAccessForEveryPolicy)
{
    // The replay kernels tally the per-reference counters once per
    // call: spans of any length must add up to exactly the statistics
    // access() records one reference at a time.
    const std::vector<MemRef> refs = mixedRefs(20000);
    std::vector<PackedRecord> packed = packAll(refs);
    // A record flagged both write and ifetch prices as the write.
    const auto first_write =
        std::find_if(refs.begin(), refs.end(),
                     [](const MemRef &ref) { return ref.isWrite(); });
    ASSERT_NE(first_write, refs.end());
    packed[static_cast<std::size_t>(first_write - refs.begin())].bits |=
        PackedRecord::kIfetchBit;

    for (const FetchPolicy fetch :
         {FetchPolicy::Demand, FetchPolicy::LoadForward,
          FetchPolicy::PrefetchNextOnMiss}) {
        for (const WritePolicy write_policy :
             {WritePolicy::WriteThrough, WritePolicy::CopyBack}) {
            for (const bool allocate : {true, false}) {
                CacheConfig config = makeConfig(256, 16, 4, 2);
                config.fetch = fetch;
                config.write = write_policy;
                config.writeAllocate = allocate;
                SCOPED_TRACE(config.fullName());

                Cache direct(config);
                for (const MemRef &ref : refs)
                    direct.access(ref);
                direct.finalizeResidencies();

                Cache replayed(config);
                std::size_t pos = 0;
                for (const std::size_t len :
                     {std::size_t{1}, std::size_t{7}, std::size_t{1000},
                      packed.size()}) {
                    const std::size_t take =
                        std::min(len, packed.size() - pos);
                    replayed.replayPacked(packed.data() + pos, take);
                    pos += take;
                }
                replayed.finalizeResidencies();
                for (const std::string &line :
                     diffCacheStats("replay", replayed.stats(),
                                    direct.stats()))
                    ADD_FAILURE() << line;
            }
        }
    }
}

TEST(Cache, EveryKernelMatchesTheReferenceCache)
{
    // Every kernel selectKernel can pick — fetch x write x allocate x
    // replacement x associativity, where 1/2/4/8 ways are unrolled
    // and 16 reaches the runtime-assoc kernel — driven one record at a
    // time through access() and in spans through replayPacked, must
    // match the independent oracle on every counter and histogram.
    const std::vector<MemRef> refs = mixedRefs(10000);
    const std::vector<PackedRecord> packed = packAll(refs);

    for (const FetchPolicy fetch :
         {FetchPolicy::Demand, FetchPolicy::LoadForward,
          FetchPolicy::LoadForwardOptimized,
          FetchPolicy::PrefetchNextOnMiss}) {
        for (const WritePolicy write_policy :
             {WritePolicy::WriteThrough, WritePolicy::CopyBack}) {
            for (const bool allocate : {true, false}) {
                for (const ReplacementPolicy repl :
                     {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                      ReplacementPolicy::Random}) {
                    for (const std::uint32_t assoc :
                         {1u, 2u, 4u, 8u, 16u}) {
                        CacheConfig config = makeConfig(1024, 16, 4, 2);
                        config.fetch = fetch;
                        config.write = write_policy;
                        config.writeAllocate = allocate;
                        config.replacement = repl;
                        config.assoc = assoc;
                        SCOPED_TRACE(config.fullName());

                        ReferenceCache oracle(config);
                        oracle.run(refs);

                        Cache direct(config);
                        for (const MemRef &ref : refs)
                            direct.access(ref);
                        direct.finalizeResidencies();

                        Cache replayed(config);
                        std::size_t pos = 0;
                        for (const std::size_t len :
                             {std::size_t{1}, std::size_t{7},
                              packed.size()}) {
                            const std::size_t take =
                                std::min(len, packed.size() - pos);
                            replayed.replayPacked(packed.data() + pos,
                                                  take);
                            pos += take;
                        }
                        replayed.finalizeResidencies();

                        for (const std::string &line :
                             diffStats(oracle.stats(), direct.stats()))
                            ADD_FAILURE() << "access: " << line;
                        for (const std::string &line : diffStats(
                                 oracle.stats(), replayed.stats()))
                            ADD_FAILURE() << "replay: " << line;
                    }
                }
            }
        }
    }
}

TEST(Cache, WarmPackedRecordsNothingUnderNextBlockPrefetch)
{
    // warmPacked moves cache state only: the prefetches, evictions
    // and copy-back write-backs of a next-block-prefetch config must
    // leave every counter at zero.
    CacheConfig config = makeConfig(256, 16, 4, 2);
    config.fetch = FetchPolicy::PrefetchNextOnMiss;
    config.write = WritePolicy::CopyBack;
    const std::vector<PackedRecord> packed = packAll(mixedRefs(20000));

    Cache warm(config);
    warm.warmPacked(packed.data(), packed.size());
    const CacheStats fresh(warm.geometry().subBlocksPerBlock(),
                           warm.geometry().subBlocksPerBlock() *
                               warm.geometry().wordsPerSubBlock());
    for (const std::string &line :
         diffCacheStats("warm", warm.stats(), fresh))
        ADD_FAILURE() << line;

    // The recording kernel over the same records does record all of
    // them, so the zeros above are not vacuous.
    Cache recorded(config);
    recorded.replayPacked(packed.data(), packed.size());
    EXPECT_GT(recorded.stats().prefetches(), 0u);
    EXPECT_GT(recorded.stats().evictions(), 0u);
    EXPECT_GT(recorded.stats().writebackWords(), 0u);
}
