/**
 * @file
 * Unit tests for the replacement policies: LRU recency maintenance,
 * FIFO insertion order, Random determinism under a fixed seed, and
 * the age stamps against the eviction-order list they replace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/replacement.hh"

using namespace occsim;

namespace {

/**
 * The per-set eviction-order list that ReplacementState's age stamps
 * stand in for: ways from next victim to most protected, starting at
 * 0..assoc-1. A fill moves its way to the back under LRU and FIFO, a
 * reference only under LRU.
 */
class OrderListModel
{
  public:
    OrderListModel(ReplacementPolicy policy, std::uint32_t num_sets,
                   std::uint32_t assoc)
        : policy_(policy), assoc_(assoc), order_(num_sets)
    {
        for (std::vector<std::uint32_t> &list : order_)
            seedMruOrder(list, 0);
    }

    void onFill(std::uint32_t set, std::uint32_t way)
    {
        moveToBack(order_[set], way);
    }
    void onAccess(std::uint32_t set, std::uint32_t way)
    {
        if (policy_ == ReplacementPolicy::LRU)
            moveToBack(order_[set], way);
    }
    /** Empty ways first in way order, then the filled ways 0..filled-1
     *  LRU-first (way filled-1 next, way 0 most protected). */
    void seedMruOrder(std::uint32_t set, std::uint32_t filled)
    {
        seedMruOrder(order_[set], filled);
    }
    const std::vector<std::uint32_t> &order(std::uint32_t set) const
    {
        return order_[set];
    }

  private:
    static void moveToBack(std::vector<std::uint32_t> &list,
                           std::uint32_t way)
    {
        list.erase(std::find(list.begin(), list.end(), way));
        list.push_back(way);
    }
    void seedMruOrder(std::vector<std::uint32_t> &list,
                      std::uint32_t filled) const
    {
        list.clear();
        for (std::uint32_t way = filled; way < assoc_; ++way)
            list.push_back(way);
        for (std::uint32_t way = filled; way > 0; --way)
            list.push_back(way - 1);
    }

    ReplacementPolicy policy_;
    std::uint32_t assoc_;
    std::vector<std::vector<std::uint32_t>> order_;
};

} // namespace

TEST(ReplacementState, AgeStampsMatchTheOrderListModel)
{
    // Random fills, references and MRU seedings; after every step the
    // victim and the whole eviction order of every set must be the
    // order list's, never-stamped ways included (ties go to the
    // lowest way).
    constexpr std::uint32_t kSets = 3;
    std::mt19937 rng(1984);
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
        for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
            SCOPED_TRACE(testing::Message()
                         << replacementPolicyName(policy) << " " << assoc
                         << "-way");
            ReplacementState repl(policy, kSets, assoc);
            OrderListModel model(policy, kSets, assoc);
            for (int step = 0; step < 3000; ++step) {
                const std::uint32_t set = rng() % kSets;
                const std::uint32_t way = rng() % assoc;
                switch (rng() % 8) {
                  case 0:
                  case 1:
                  case 2:
                    repl.onFill(set, way);
                    model.onFill(set, way);
                    break;
                  case 3:
                  case 4:
                  case 5:
                    repl.onAccess(set, way);
                    model.onAccess(set, way);
                    break;
                  case 6: {
                    const std::uint32_t filled = rng() % (assoc + 1);
                    repl.seedMruOrder(set, filled);
                    model.seedMruOrder(set, filled);
                    break;
                  }
                  default:
                    break;  // a victim query alone
                }
                for (std::uint32_t s = 0; s < kSets; ++s) {
                    ASSERT_EQ(repl.victim(s), model.order(s).front())
                        << "step " << step << " set " << s;
                    ASSERT_EQ(repl.evictionOrder(s), model.order(s))
                        << "step " << step << " set " << s;
                }
            }
        }
    }
}

TEST(LRU, VictimIsLeastRecentlyUsed)
{
    ReplacementState repl(ReplacementPolicy::LRU, 1, 4);
    // Fill ways 0..3 in order, then touch 0: victim must be 1.
    for (std::uint32_t way = 0; way < 4; ++way)
        repl.onFill(0, way);
    repl.onAccess(0, 0);
    EXPECT_EQ(repl.victim(0), 1u);
    repl.onAccess(0, 1);
    EXPECT_EQ(repl.victim(0), 2u);
}

TEST(LRU, AccessPromotesToMostRecent)
{
    ReplacementState repl(ReplacementPolicy::LRU, 1, 3);
    repl.onFill(0, 0);
    repl.onFill(0, 1);
    repl.onFill(0, 2);
    repl.onAccess(0, 0);
    const auto order = repl.evictionOrder(0);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1u);  // next victim
    EXPECT_EQ(order[1], 2u);
    EXPECT_EQ(order[2], 0u);  // most protected
}

TEST(LRU, SetsAreIndependent)
{
    ReplacementState repl(ReplacementPolicy::LRU, 2, 2);
    repl.onFill(0, 0);
    repl.onFill(0, 1);
    repl.onFill(1, 1);
    repl.onFill(1, 0);
    repl.onAccess(0, 0);
    EXPECT_EQ(repl.victim(0), 1u);
    EXPECT_EQ(repl.victim(1), 1u);
}

TEST(FIFO, AccessDoesNotPromote)
{
    ReplacementState repl(ReplacementPolicy::FIFO, 1, 3);
    repl.onFill(0, 0);
    repl.onFill(0, 1);
    repl.onFill(0, 2);
    // Touch way 0 repeatedly: in FIFO it must still be evicted first.
    repl.onAccess(0, 0);
    repl.onAccess(0, 0);
    EXPECT_EQ(repl.victim(0), 0u);
    // Refill (new block) does re-order.
    repl.onFill(0, 0);
    EXPECT_EQ(repl.victim(0), 1u);
}

TEST(Random, DeterministicUnderSeed)
{
    ReplacementState a(ReplacementPolicy::Random, 1, 4, 777);
    ReplacementState b(ReplacementPolicy::Random, 1, 4, 777);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(Random, CoversAllWays)
{
    ReplacementState repl(ReplacementPolicy::Random, 1, 4, 1);
    bool seen[4] = {};
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t way = repl.victim(0);
        ASSERT_LT(way, 4u);
        seen[way] = true;
    }
    for (bool hit : seen)
        EXPECT_TRUE(hit);
}
