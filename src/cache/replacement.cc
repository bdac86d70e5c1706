#include "cache/replacement.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace occsim {

ReplacementState::ReplacementState(ReplacementPolicy policy,
                                   std::uint32_t num_sets,
                                   std::uint32_t assoc,
                                   std::uint64_t seed)
    : policy_(policy), assoc_(assoc), rng_(seed)
{
    occsim_assert(num_sets > 0 && assoc > 0,
                  "replacement needs sets and ways");
    if (policy != ReplacementPolicy::Random && assoc > 1)
        stamps_.assign(static_cast<std::size_t>(num_sets) * assoc, 0);
}

void
ReplacementState::onAccess(std::uint32_t set, std::uint32_t way)
{
    // Only LRU promotes on reference; FIFO order is fixed at fill
    // time and Random keeps no state.
    if (policy_ == ReplacementPolicy::LRU)
        stamp(set, way);
}

void
ReplacementState::onFill(std::uint32_t set, std::uint32_t way)
{
    if (policy_ != ReplacementPolicy::Random)
        stamp(set, way);
}

std::uint32_t
ReplacementState::victim(std::uint32_t set)
{
    if (policy_ == ReplacementPolicy::Random)
        return victimSpec<ReplacementPolicy::Random>(set);
    // LRU and FIFO share the oldest-stamp victim.
    return victimSpec<ReplacementPolicy::LRU>(set);
}

std::vector<std::uint32_t>
ReplacementState::evictionOrder(std::uint32_t set) const
{
    std::vector<std::uint32_t> order(assoc_);
    std::iota(order.begin(), order.end(), 0u);
    if (!stamps_.empty()) {
        const std::uint64_t *stamps = setStamps(set);
        std::stable_sort(order.begin(), order.end(),
                         [stamps](std::uint32_t a, std::uint32_t b) {
                             return stamps[a] < stamps[b];
                         });
    }
    return order;
}

void
ReplacementState::seedMruOrder(std::uint32_t set, std::uint32_t filled)
{
    occsim_assert(filled <= assoc_,
                  "seeding %u filled ways into %u-way set", filled,
                  assoc_);
    if (stamps_.empty())
        return;
    std::uint64_t *stamps = setStamps(set);
    for (std::uint32_t way = filled; way < assoc_; ++way)
        stamps[way] = 0;
    for (std::uint32_t way = filled; way > 0; --way)
        stamps[way - 1] = ++clock_;
}

} // namespace occsim
