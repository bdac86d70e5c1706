/**
 * @file
 * Unit tests for the CacheConfig API: naming, builders, enum names,
 * equality, and the even I/D split's half.
 */

#include <gtest/gtest.h>

#include "cache/cache_config.hh"

using namespace occsim;

TEST(CacheConfig, ShortNamesMatchPaperStyle)
{
    EXPECT_EQ(makeConfig(1024, 16, 8, 2).shortName(), "16,8");
    EXPECT_EQ(makeConfig(64, 4, 2, 2).shortName(), "4,2");

    CacheConfig lf = makeConfig(256, 16, 2, 2);
    lf.fetch = FetchPolicy::LoadForward;
    EXPECT_EQ(lf.shortName(), "16,2,LF");
    lf.fetch = FetchPolicy::LoadForwardOptimized;
    EXPECT_EQ(lf.shortName(), "16,2,LFO");
}

TEST(CacheConfig, FullNameMentionsEverything)
{
    CacheConfig config = makeConfig(512, 8, 4, 2);
    config.replacement = ReplacementPolicy::FIFO;
    const std::string name = config.fullName();
    EXPECT_NE(name.find("512B"), std::string::npos);
    EXPECT_NE(name.find("8,4"), std::string::npos);
    EXPECT_NE(name.find("4-way"), std::string::npos);
    EXPECT_NE(name.find("FIFO"), std::string::npos);
    EXPECT_NE(name.find("demand"), std::string::npos);
}

TEST(CacheConfig, MakeConfigDefaults)
{
    const CacheConfig config = makeConfig(256, 16, 4, 2);
    EXPECT_EQ(config.netSize, 256u);
    EXPECT_EQ(config.blockSize, 16u);
    EXPECT_EQ(config.subBlockSize, 4u);
    EXPECT_EQ(config.wordSize, 2u);
    EXPECT_EQ(config.assoc, 4u);
    EXPECT_EQ(config.addressBits, 32u);
    EXPECT_EQ(config.replacement, ReplacementPolicy::LRU);
    EXPECT_EQ(config.fetch, FetchPolicy::Demand);
    EXPECT_TRUE(config.writeAllocate);
}

TEST(CacheConfig, Model85Builder)
{
    const CacheConfig config = make360Model85Config();
    EXPECT_EQ(config.netSize, 16384u);
    EXPECT_EQ(config.blockSize, 1024u);
    EXPECT_EQ(config.subBlockSize, 64u);
    EXPECT_EQ(config.assoc, 16u);
    EXPECT_EQ(config.wordSize, 4u);
}

TEST(CacheConfig, EnumNames)
{
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::LRU), "LRU");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::FIFO),
                 "FIFO");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Random),
                 "Random");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::Demand), "demand");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::LoadForward),
                 "load-forward");
    EXPECT_STREQ(fetchPolicyName(FetchPolicy::LoadForwardOptimized),
                 "load-forward-opt");
}

TEST(CacheConfig, Equality)
{
    const CacheConfig a = makeConfig(256, 16, 4, 2);
    CacheConfig b = a;
    EXPECT_EQ(a, b);
    b.subBlockSize = 8;
    EXPECT_NE(a, b);
    b = a;
    b.fetch = FetchPolicy::LoadForward;
    EXPECT_NE(a, b);
}

TEST(CacheConfig, EvenSplitHalvesEachSide)
{
    // Each side of an even split is an ordinary unified cache of half
    // the net size, the same geometry otherwise.
    CacheConfig mixed = makeConfig(1024, 16, 8, 2);
    mixed.partition = CachePartition::SplitID;
    mixed.fetch = FetchPolicy::LoadForward;
    const CacheConfig half = evenSplitHalf(mixed);
    EXPECT_EQ(half.netSize, 512u);
    EXPECT_EQ(half.partition, CachePartition::Unified);
    CacheConfig rest = half;
    rest.netSize = mixed.netSize;
    rest.partition = mixed.partition;
    EXPECT_EQ(rest, mixed);
}
