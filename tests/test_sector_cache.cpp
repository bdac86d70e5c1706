/**
 * @file
 * Unit tests for the 360/85 sector cache model (Section 4.1): the
 * historical geometry, fully-associative behaviour, and the expected
 * relationship to set-associative caches of the same size.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/sector_cache.hh"
#include "workload/synthetic.hh"

using namespace occsim;

TEST(SectorCache, HistoricalGeometry)
{
    Cache cache(make360Model85Config());
    EXPECT_EQ(cache.config().netSize, 16u * 1024u);
    EXPECT_EQ(cache.config().blockSize, 1024u);
    EXPECT_EQ(cache.config().subBlockSize, 64u);
    EXPECT_EQ(cache.geometry().numSets(), 1u);
    EXPECT_EQ(cache.geometry().assoc(), 16u);
    EXPECT_EQ(cache.geometry().subBlocksPerBlock(), 16u);
}

TEST(SectorCache, SeventeenthSectorEvicts)
{
    Cache cache(make360Model85Config());
    // Touch 16 distinct sectors (1024 bytes apart).
    for (Addr sector = 0; sector < 16; ++sector)
        cache.access(MemRef{sector * 1024, RefKind::DataRead, 4});
    EXPECT_EQ(cache.stats().misses(), 16u);
    EXPECT_TRUE(cache.isResident(0));
    // Sector 17 evicts the LRU sector (sector 0).
    cache.access(MemRef{16 * 1024, RefKind::DataRead, 4});
    EXPECT_FALSE(cache.isBlockResident(0));
    EXPECT_TRUE(cache.isResident(16 * 1024));
}

TEST(SectorCache, SubBlockMissWithinResidentSector)
{
    Cache cache(make360Model85Config());
    cache.access(MemRef{0, RefKind::DataRead, 4});
    // Same sector, different 64-byte sub-block: sub-block miss.
    EXPECT_EQ(cache.access(MemRef{64, RefKind::DataRead, 4}),
              AccessOutcome::SubBlockMiss);
    // Same sub-block as first access: hit.
    EXPECT_EQ(cache.access(MemRef{60, RefKind::DataRead, 4}),
              AccessOutcome::Hit);
}

TEST(SectorCache, Table6Comparators)
{
    const auto configs = table6Comparators();
    ASSERT_EQ(configs.size(), 3u);
    for (const CacheConfig &config : configs) {
        EXPECT_EQ(config.netSize, 16u * 1024u);
        EXPECT_EQ(config.blockSize, 64u);
        EXPECT_EQ(config.subBlockSize, 64u);
    }
    EXPECT_EQ(configs[0].assoc, 4u);
    EXPECT_EQ(configs[1].assoc, 8u);
    EXPECT_EQ(configs[2].assoc, 16u);
}

TEST(SectorCache, WorseThanSetAssociativeOnScatteredData)
{
    // The paper's Section 4.1 finding, as a property: with data
    // scattered over much more than 16 KB, the sector cache (only 16
    // huge blocks) misses far more than a 4-way set-associative
    // cache of the same size with 64-byte blocks.
    SyntheticParams params;
    params.wordSize = 4;
    params.seed = 3;
    params.codeBase = 0x10000;
    params.codeSize = 4 * 1024;    // code fits either cache
    params.dataBase = 0x100000;
    params.dataSize = 48 * 1024;   // 3x the cache, mostly uniform
    params.stackBase = 0x200000;
    params.ifetchFraction = 0.4;
    params.dataStackProb = 0.15;
    params.dataScanProb = 0.15;
    const VectorTrace trace = makeSyntheticTrace(params, 150000);

    Cache sector(make360Model85Config());
    VectorTrace copy = trace;
    sector.run(copy);

    CacheConfig modern_config;
    modern_config.netSize = 16 * 1024;
    modern_config.blockSize = 64;
    modern_config.subBlockSize = 64;
    modern_config.assoc = 4;
    modern_config.wordSize = 4;
    Cache modern(modern_config);
    copy = trace;
    modern.run(copy);

    EXPECT_GT(sector.stats().missRatio(),
              1.3 * modern.stats().missRatio());
    // And most sub-blocks of a resident sector go unreferenced.
    EXPECT_GT(sector.stats().neverReferencedFraction(), 0.4);
}
