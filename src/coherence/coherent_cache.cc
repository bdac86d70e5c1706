#include "coherence/coherent_cache.hh"

#include <bit>

#include "util/logging.hh"

namespace occsim {

CoherentCache::CoherentCache(const CacheConfig &config)
    : geom_(config),
      assoc_(geom_.assoc()),
      wordsPerSub_(geom_.wordsPerSubBlock()),
      repl_(config.replacement, geom_.numSets(), geom_.assoc(),
            config.randomSeed),
      stats_(geom_.subBlocksPerBlock(),
             geom_.subBlocksPerBlock() * geom_.wordsPerSubBlock()),
      tags_(geom_.numBlocks(), kNoTag),
      meta_(geom_.numBlocks()),
      everFilled_(geom_.numBlocks(), 0),
      mesi_(geom_.numBlocks(), MesiState::Invalid)
{
    occsim_assert(config.write == WritePolicy::CopyBack &&
                      config.writeAllocate &&
                      config.fetch == FetchPolicy::Demand &&
                      config.partition == CachePartition::Unified,
                  "coherent cache outside the MESI subset (%s); "
                  "validateScenario should have rejected this",
                  config.fullName().c_str());
}

MesiState
CoherentCache::stateOf(Addr addr) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    const int way = findWay(set, geom_.blockAddr(addr));
    if (way < 0)
        return MesiState::Invalid;
    return mesi_[static_cast<std::size_t>(set) * assoc_ +
                 static_cast<std::uint32_t>(way)];
}

bool
CoherentCache::isResident(Addr addr) const
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(geom_.setIndex(addr));
    const int way = findWay(set, geom_.blockAddr(addr));
    if (way < 0)
        return false;
    const std::size_t frame = static_cast<std::size_t>(set) * assoc_ +
                              static_cast<std::uint32_t>(way);
    return (meta_[frame].valid &
            (std::uint64_t{1} << geom_.subBlockIndex(addr))) != 0;
}

void
CoherentCache::finalizeResidencies()
{
    for (std::size_t f = 0; f < tags_.size(); ++f) {
        FrameMeta &meta = meta_[f];
        if (framePresent(f) && meta.touched != 0) {
            stats_.recordResidency(static_cast<std::uint32_t>(
                std::popcount(meta.touched)));
            meta.touched = 0;
        }
        writebackDirty(f);
    }
}

} // namespace occsim
