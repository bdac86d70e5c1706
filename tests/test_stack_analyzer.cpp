/**
 * @file
 * Unit tests for the Mattson stack-distance analyzers, including the
 * key cross-validation property: for fully-associative LRU caches
 * with sub-block == block, the analyzer's one-pass predictions must
 * match direct Cache simulation exactly, for every capacity — and
 * likewise per-set for every associativity. This gives the simulator
 * an independent correctness oracle. The order-statistics structures
 * under both analyzers (SetLruTracker, TouchTimeSet) are checked
 * against brute-force linear LRU models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hh"
#include "multi/stack_analyzer.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

using namespace occsim;

TEST(StackAnalyzer, HandComputedDistances)
{
    StackAnalyzer analyzer(/*block_size=*/16);
    // Blocks: A B A C B A  (addresses x 16)
    for (const Addr block : {0u, 1u, 0u, 2u, 1u, 0u})
        analyzer.process(block * 16);
    EXPECT_EQ(analyzer.refs(), 6u);
    EXPECT_EQ(analyzer.distinctBlocks(), 3u);
    const auto &hist = analyzer.distanceHistogram();
    // Distances: A(inf) B(inf) A(2) C(inf) B(3) A(3)
    EXPECT_EQ(hist[1], 0u);
    EXPECT_EQ(hist[2], 1u);
    EXPECT_EQ(hist[3], 2u);
}

TEST(StackAnalyzer, MissRatioFromHistogram)
{
    StackAnalyzer analyzer(16);
    for (const Addr block : {0u, 1u, 0u, 2u, 1u, 0u})
        analyzer.process(block * 16);
    // Capacity 1: everything misses except consecutive repeats (none).
    EXPECT_DOUBLE_EQ(analyzer.missRatioForCapacity(1), 1.0);
    // Capacity 2: the distance-2 reference hits.
    EXPECT_DOUBLE_EQ(analyzer.missRatioForCapacity(2), 5.0 / 6.0);
    // Capacity 3+: all three reuses hit.
    EXPECT_DOUBLE_EQ(analyzer.missRatioForCapacity(3), 3.0 / 6.0);
    EXPECT_DOUBLE_EQ(analyzer.missRatioForCapacity(100), 3.0 / 6.0);
}

TEST(StackAnalyzer, InclusionProperty)
{
    // Miss ratio is monotone non-increasing in capacity (the LRU
    // stack inclusion property).
    SyntheticParams params;
    params.seed = 9;
    StackAnalyzer analyzer(16);
    SyntheticSource source(params);
    MemRef ref;
    for (int i = 0; i < 50000; ++i) {
        source.next(ref);
        analyzer.process(ref.addr);
    }
    double prev = 1.1;
    for (std::uint32_t capacity = 1; capacity <= 512; capacity *= 2) {
        const double miss = analyzer.missRatioForCapacity(capacity);
        EXPECT_LE(miss, prev + 1e-12);
        prev = miss;
    }
}

TEST(StackAnalyzer, MatchesDirectSimulationFullyAssociative)
{
    // One analyzer pass == many direct simulations, exactly.
    SyntheticParams params;
    params.seed = 21;
    const VectorTrace trace = makeSyntheticTrace(params, 40000);

    StackAnalyzer analyzer(16);
    analyzer.processTrace(trace);

    for (const std::uint32_t capacity : {2u, 4u, 8u, 16u, 64u}) {
        CacheConfig config =
            makeConfig(capacity * 16, 16, 16, 2);
        config.assoc = capacity;  // fully associative
        Cache cache(config);
        for (const MemRef &ref : trace.refs()) {
            // The analyzer has no write special-casing; feed reads.
            MemRef as_read = ref;
            as_read.kind = RefKind::DataRead;
            cache.access(as_read);
        }
        EXPECT_NEAR(cache.stats().missRatio(),
                    analyzer.missRatioForCapacity(capacity), 1e-12)
            << "capacity " << capacity;
    }
}

TEST(SetStackAnalyzer, MatchesDirectSimulationSetAssociative)
{
    SyntheticParams params;
    params.seed = 33;
    const VectorTrace trace = makeSyntheticTrace(params, 40000);

    constexpr std::uint32_t kSets = 8;
    SetStackAnalyzer analyzer(16, kSets);
    analyzer.processTrace(trace);

    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        CacheConfig config =
            makeConfig(kSets * assoc * 16, 16, 16, 2);
        config.assoc = assoc;
        Cache cache(config);
        for (const MemRef &ref : trace.refs()) {
            MemRef as_read = ref;
            as_read.kind = RefKind::DataRead;
            cache.access(as_read);
        }
        EXPECT_NEAR(cache.stats().missRatio(),
                    analyzer.missRatioForAssoc(assoc), 1e-12)
            << "assoc " << assoc;
    }
}

TEST(SetStackAnalyzer, AssociativityGainsFlatten)
{
    // Strecker's observation reproduced as a weak property: going
    // 1 -> 4 way helps much more than 4 -> 8 way.
    SyntheticParams params;
    params.seed = 61;
    SetStackAnalyzer analyzer(16, 8);
    SyntheticSource source(params);
    MemRef ref;
    for (int i = 0; i < 80000; ++i) {
        source.next(ref);
        analyzer.process(ref.addr);
    }
    const double m1 = analyzer.missRatioForAssoc(1);
    const double m4 = analyzer.missRatioForAssoc(4);
    const double m8 = analyzer.missRatioForAssoc(8);
    EXPECT_GE(m1 - m4, m4 - m8);
}

TEST(StackAnalyzer, OverflowBeyondMaxDepth)
{
    StackAnalyzer analyzer(16, /*max_depth=*/4);
    // Cycle through 6 blocks twice: every reuse distance is 6,
    // beyond the retained depth, so nothing can be answered as a hit.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr block = 0; block < 6; ++block)
            analyzer.process(block * 16);
    }
    EXPECT_DOUBLE_EQ(analyzer.missRatioForCapacity(4), 1.0);
    // The exact tracker distinguishes true first touches (6) from
    // reuses whose distance merely exceeded the depth cap (6); the
    // latter are reported via overflowRefs() and, for compatibility
    // with the historical bounded-stack accounting, also counted in
    // distinctBlocks().
    EXPECT_EQ(analyzer.overflowRefs(), 6u);
    EXPECT_EQ(analyzer.distinctBlocks(), 12u);
}

TEST(SetStackAnalyzer, HistogramMatchesLinearStackOracle)
{
    // Cross-check the Fenwick-backed order-statistic tracker against
    // a brute-force per-set linear LRU stack on an address mix that
    // forces deep reuse, MRU repeats, and set aliasing.
    constexpr std::uint32_t kBlockSize = 16;
    constexpr std::uint32_t kSets = 4;
    constexpr std::uint32_t kDepth = 64;
    SetStackAnalyzer analyzer(kBlockSize, kSets, kDepth);

    std::vector<std::vector<Addr>> stacks(kSets);  // front == MRU
    std::vector<std::uint64_t> hist(kDepth + 1, 0);
    std::uint64_t beyond = 0;

    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    for (int i = 0; i < 60000; ++i) {
        // Mostly a tight 24-block loop (shallow distances, frequent
        // MRU re-touches), occasionally a 3000-block tail that pushes
        // reuses past the retained depth.
        const std::uint64_t r = next();
        const Addr block = (r % 10 != 0) ? (i % 24)
                                         : Addr(r >> 32) % 3000;
        analyzer.process(block * kBlockSize);

        auto &stack = stacks[block % kSets];
        const auto it = std::find(stack.begin(), stack.end(), block);
        if (it == stack.end()) {
            ++beyond;
        } else {
            const std::size_t d = (it - stack.begin()) + 1;
            if (d <= kDepth)
                ++hist[d];
            else
                ++beyond;
            stack.erase(it);
        }
        stack.insert(stack.begin(), block);
    }

    ASSERT_EQ(analyzer.refs(), 60000u);
    for (std::uint32_t d = 1; d <= kDepth; ++d)
        EXPECT_EQ(analyzer.distanceHistogram()[d], hist[d])
            << "distance " << d;
    for (std::uint32_t assoc = 1; assoc <= kDepth; assoc *= 2) {
        std::uint64_t hits = 0;
        for (std::uint32_t d = 1; d <= assoc; ++d)
            hits += hist[d];
        EXPECT_DOUBLE_EQ(analyzer.missRatioForAssoc(assoc),
                         1.0 - double(hits) / 60000.0)
            << "assoc " << assoc;
    }
}

TEST(TouchTimeSet, MatchesLinearStackOracle)
{
    // SetLruTracker distances vs a brute-force per-set linear LRU
    // stack, over a stream with enough churn to trigger compaction.
    constexpr std::uint32_t kSets = 4;
    SetLruTracker tracker(kSets);
    std::vector<std::vector<Addr>> stacks(kSets);  // MRU at back

    std::uint64_t state = 12345;
    auto next_block = [&]() -> Addr {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        // Mix tight reuse (16 blocks) with a long tail (4096 blocks).
        return (state >> 33) % 2 == 0
                   ? static_cast<Addr>((state >> 40) % 16)
                   : static_cast<Addr>((state >> 40) % 4096);
    };

    for (int i = 0; i < 60000; ++i) {
        const Addr block = next_block();
        auto &stack = stacks[block % kSets];
        std::uint64_t expected = SetLruTracker::kFirstTouch;
        for (std::size_t j = stack.size(); j-- > 0;) {
            if (stack[j] == block) {
                expected = stack.size() - j;
                stack.erase(stack.begin() +
                            static_cast<std::ptrdiff_t>(j));
                break;
            }
        }
        stack.push_back(block);
        ASSERT_EQ(tracker.touch(block), expected) << "ref " << i;
    }
}

// ---------------------------------------------------------------- //
// TouchTimeSet compaction-boundary edge cases. The structure
// lazily drops superseded entries once the backing array reaches 64
// entries AND more than half of it is dead; these tests pin the
// behavior exactly at and around that boundary against a naive
// linear model.
// ---------------------------------------------------------------- //

namespace {

/** Transparent reference model: a plain list of live times. */
class NaiveTouchSet
{
  public:
    void insertNew(std::uint64_t t) { live_.push_back(t); }

    std::uint64_t touch(std::uint64_t prev, std::uint64_t t)
    {
        std::uint64_t deeper = 0;
        for (std::uint64_t &v : live_) {
            if (v > prev)
                ++deeper;
        }
        live_.erase(std::find(live_.begin(), live_.end(), prev));
        live_.push_back(t);
        return deeper;
    }

    std::uint64_t live() const { return live_.size(); }

  private:
    std::vector<std::uint64_t> live_;
};

} // namespace

TEST(TouchTimeSet, AgreesWithNaiveModelAcrossCompaction)
{
    // A round-robin re-touch pattern over few blocks keeps the live
    // count small while the array grows one dead entry per touch —
    // the densest compaction workload possible. Sized to cross the
    // 64-entry threshold (and subsequent ones) many times.
    for (const std::size_t blocks : {1u, 2u, 3u, 31u, 32u, 33u}) {
        TouchTimeSet fast;
        NaiveTouchSet naive;
        std::vector<std::uint64_t> last(blocks);
        std::uint64_t clock = 0;
        for (std::size_t b = 0; b < blocks; ++b) {
            last[b] = ++clock;
            fast.insertNew(clock);
            naive.insertNew(clock);
        }
        for (int round = 0; round < 600; ++round) {
            const std::size_t b = round % blocks;
            ++clock;
            const std::uint64_t got = fast.touch(last[b], clock);
            const std::uint64_t want = naive.touch(last[b], clock);
            ASSERT_EQ(got, want)
                << blocks << " blocks, round " << round;
            ASSERT_EQ(fast.live(), naive.live());
            last[b] = clock;
        }
    }
}

TEST(TouchTimeSet, RandomizedAgreesWithNaiveModel)
{
    // Interleaved inserts and random re-touches: live set drifts up
    // and down across the size-64 boundary instead of pinning it.
    Rng rng(0x70c4ull);
    TouchTimeSet fast;
    NaiveTouchSet naive;
    std::vector<std::uint64_t> last;
    std::uint64_t clock = 0;
    for (int op = 0; op < 4000; ++op) {
        if (last.empty() || rng.chance(0.125)) {
            last.push_back(++clock);
            fast.insertNew(clock);
            naive.insertNew(clock);
        } else {
            const std::size_t i = rng.below(last.size());
            ++clock;
            ASSERT_EQ(fast.touch(last[i], clock),
                      naive.touch(last[i], clock))
                << "op " << op;
            last[i] = clock;
        }
        ASSERT_EQ(fast.live(), naive.live());
    }
}

TEST(TouchTimeSet, ExactBoundaryStepAroundSixtyFour)
{
    // Walk the array size one step at a time through 63, 64, 65
    // entries with exactly half of them dead, checking the reported
    // depth at every step: compaction must never perturb ranks.
    TouchTimeSet fast;
    NaiveTouchSet naive;
    std::vector<std::uint64_t> last;
    std::uint64_t clock = 0;
    // 20 live entries, then re-touch the oldest one 60 times: array
    // length passes through every size in [21, 80] while live stays
    // 20, crossing the (>= 64 entries, > 2x live) compaction gate
    // exactly at 64 and again after each compaction.
    for (int i = 0; i < 20; ++i) {
        last.push_back(++clock);
        fast.insertNew(clock);
        naive.insertNew(clock);
    }
    for (int step = 0; step < 60; ++step) {
        // Oldest live entry: depth must always be live - 1.
        const auto oldest =
            std::min_element(last.begin(), last.end());
        ++clock;
        const std::uint64_t got = fast.touch(*oldest, clock);
        ASSERT_EQ(got, naive.touch(*oldest, clock)) << "step " << step;
        ASSERT_EQ(got, fast.live() - 1);
        *oldest = clock;
    }
}
