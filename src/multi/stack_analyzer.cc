#include "multi/stack_analyzer.hh"

#include <algorithm>

#include "util/logging.hh"

namespace occsim {

namespace {

/** Lowest set bit of a 1-based Fenwick position. */
inline std::size_t
lowbit(std::size_t i)
{
    return i & (~i + 1);
}

/**
 * Rebuild @p hits_up_to as prefix sums of @p hist (hits_up_to[c] =
 * sum of hist[1..c]) if @p stale, then clear the flag. Summation
 * order matches the historical per-query rescan, so every answer is
 * bit-identical to it.
 */
void
refreshPrefix(const std::vector<std::uint64_t> &hist,
              std::vector<std::uint64_t> &hits_up_to, bool &stale)
{
    if (!stale)
        return;
    hits_up_to.assign(hist.size(), 0);
    for (std::size_t d = 1; d < hist.size(); ++d)
        hits_up_to[d] = hits_up_to[d - 1] + hist[d];
    stale = false;
}

} // namespace

// ---------------------------------------------------------------- //
// TouchTimeSet
// ---------------------------------------------------------------- //

std::uint64_t
TouchTimeSet::prefix(std::size_t pos) const
{
    std::uint64_t sum = 0;
    for (; pos > 0; pos -= lowbit(pos))
        sum += tree_[pos];
    return sum;
}

void
TouchTimeSet::append(std::uint64_t t)
{
    times_.push_back(t);
    alive_.push_back(1);
    ++live_;
    const std::size_t n = times_.size();
    if (tree_.empty())
        tree_.push_back(0);  // 1-based; slot 0 unused
    // The Fenwick node for position n covers (n - lowbit(n), n].
    // Every entry ever inserted sits at a position <= n, so the node's
    // count is the total live count minus the live entries in
    // [1, n - lowbit(n)] — a plain point-update would miss the dead
    // entries recorded before the tree grew this far.
    tree_.push_back(
        static_cast<std::uint32_t>(live_ - prefix(n - lowbit(n))));
}

void
TouchTimeSet::insertNew(std::uint64_t t)
{
    append(t);
}

std::uint64_t
TouchTimeSet::touch(std::uint64_t prev, std::uint64_t t)
{
    // MRU fast path: the back entry is always live (entries die only
    // when superseded by a strictly newer maximum), and locality makes
    // re-touching the most recent block overwhelmingly common.
    if (times_.back() == prev) {
        times_.back() = t;
        return 0;
    }

    const auto it = std::lower_bound(times_.begin(), times_.end(), prev);
    const std::size_t pos =
        static_cast<std::size_t>(it - times_.begin()) + 1;
    const std::uint64_t above = live_ - prefix(pos);

    alive_[pos - 1] = 0;
    --live_;
    for (std::size_t i = pos; i < tree_.size(); i += lowbit(i))
        --tree_[i];

    append(t);
    maybeCompact();
    return above;
}

void
TouchTimeSet::maybeCompact()
{
    if (times_.size() < 64 || times_.size() <= 2 * live_)
        return;
    std::vector<std::uint64_t> survivors;
    survivors.reserve(live_);
    for (std::size_t i = 0; i < times_.size(); ++i) {
        if (alive_[i])
            survivors.push_back(times_[i]);
    }
    times_ = std::move(survivors);
    alive_.assign(times_.size(), 1);
    // All-alive Fenwick: node i counts its whole range.
    tree_.assign(times_.size() + 1, 0);
    for (std::size_t i = 1; i <= times_.size(); ++i)
        tree_[i] = static_cast<std::uint32_t>(lowbit(i));
}

// ---------------------------------------------------------------- //
// LruTracker
// ---------------------------------------------------------------- //

std::uint64_t
LruTracker::touch(Addr block)
{
    const std::uint64_t t = ++clock_;
    const auto [it, inserted] = lastTouch_.try_emplace(block, t);
    if (inserted) {
        stack_.insertNew(t);
        return kFirstTouch;
    }
    const std::uint64_t prev = it->second;
    it->second = t;
    return stack_.touch(prev, t) + 1;
}

// ---------------------------------------------------------------- //
// StackAnalyzer
// ---------------------------------------------------------------- //

StackAnalyzer::StackAnalyzer(std::uint32_t block_size,
                             std::uint32_t max_depth)
    : blockBits_(floorLog2(block_size)), maxDepth_(max_depth),
      distanceHist_(max_depth + 1, 0)
{
    occsim_assert(isPowerOfTwo(block_size),
                  "block size must be a power of two");
    occsim_assert(max_depth > 0, "max depth must be positive");
}

void
StackAnalyzer::process(Addr addr)
{
    ++refs_;
    prefixStale_ = true;
    const Addr block = addr >> blockBits_;
    const std::uint64_t distance = tracker_.touch(block);
    if (distance == LruTracker::kFirstTouch) {
        ++distinct_;
    } else if (distance <= maxDepth_) {
        ++distanceHist_[distance];
    } else {
        // Beyond-depth reuse: misses in every capacity we can answer
        // for, exactly like a first touch (this is what the old
        // bounded stack reported for it), but worth counting on its
        // own as well.
        ++distinct_;
        ++overflow_;
    }
}

void
StackAnalyzer::processTrace(const VectorTrace &trace)
{
    for (const MemRef &ref : trace.refs())
        process(ref.addr);
}

double
StackAnalyzer::missRatioForCapacity(std::uint32_t capacity_blocks) const
{
    occsim_assert(capacity_blocks > 0, "capacity must be positive");
    occsim_assert(capacity_blocks <= maxDepth_,
                  "capacity %u exceeds analyzer depth %u",
                  capacity_blocks, maxDepth_);
    if (refs_ == 0)
        return 0.0;
    refreshPrefix(distanceHist_, hitsUpTo_, prefixStale_);
    const std::uint32_t limit =
        std::min<std::uint32_t>(capacity_blocks,
                                static_cast<std::uint32_t>(
                                    distanceHist_.size() - 1));
    return 1.0 - static_cast<double>(hitsUpTo_[limit]) /
                     static_cast<double>(refs_);
}

} // namespace occsim
