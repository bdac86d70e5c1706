#include "cache/cache_stats.hh"

#include <ostream>

#include "stats/stats.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

CacheStats::CacheStats(std::uint32_t sub_blocks_per_block,
                       std::uint32_t max_burst_words)
    : subBlocksPerBlock_(sub_blocks_per_block),
      residencyTouched_("sub-blocks touched per residency",
                        sub_blocks_per_block + 1),
      burstWords_("burst size (words)", max_burst_words + 1),
      coldBurstWords_("cold burst size (words)", max_burst_words + 1)
{
}

double
CacheStats::prefetchAccuracy() const
{
    return ratio(usefulPrefetches_, prefetches_);
}

void
CacheStats::mergeFrom(const CacheStats &other)
{
    occsim_assert(subBlocksPerBlock_ == other.subBlocksPerBlock_,
                  "merging stats of different geometries");
    accesses_ += other.accesses_;
    misses_ += other.misses_;
    blockMisses_ += other.blockMisses_;
    coldMisses_ += other.coldMisses_;
    ifetchAccesses_ += other.ifetchAccesses_;
    ifetchMisses_ += other.ifetchMisses_;
    writeAccesses_ += other.writeAccesses_;
    writeMisses_ += other.writeMisses_;
    wordsFetched_ += other.wordsFetched_;
    coldWords_ += other.coldWords_;
    redundantWords_ += other.redundantWords_;
    writeWords_ += other.writeWords_;
    storeWords_ += other.storeWords_;
    writebackWords_ += other.writebackWords_;
    prefetchWords_ += other.prefetchWords_;
    prefetches_ += other.prefetches_;
    usefulPrefetches_ += other.usefulPrefetches_;
    bursts_ += other.bursts_;
    evictions_ += other.evictions_;
    residencyTouched_.mergeFrom(other.residencyTouched_);
    burstWords_.mergeFrom(other.burstWords_);
    coldBurstWords_.mergeFrom(other.coldBurstWords_);
}

void
CacheStats::reset()
{
    *this = CacheStats(subBlocksPerBlock_,
                       static_cast<std::uint32_t>(
                           burstWords_.numBuckets() - 1));
}

double
CacheStats::missRatio() const
{
    return ratio(misses_, accesses_);
}

double
CacheStats::warmMissRatio() const
{
    return ratio(misses_ - coldMisses_, accesses_ - coldMisses_);
}

double
CacheStats::trafficRatio() const
{
    return ratio(wordsFetched_, accesses_);
}

double
CacheStats::warmTrafficRatio() const
{
    return ratio(wordsFetched_ - coldWords_, accesses_ - coldMisses_);
}

namespace {

double
priceBursts(const Distribution &hist, const BusModel &bus)
{
    double cost = 0.0;
    for (std::size_t w = 1; w < hist.numBuckets(); ++w) {
        const std::uint64_t count = hist.bucket(w);
        if (count != 0)
            cost += static_cast<double>(count) * bus.burstCost(w);
    }
    return cost;
}

} // namespace

double
CacheStats::scaledTrafficRatio(const BusModel &bus) const
{
    return ratio(priceBursts(burstWords_, bus),
                 static_cast<double>(accesses_));
}

double
CacheStats::warmScaledTrafficRatio(const BusModel &bus) const
{
    return ratio(priceBursts(burstWords_, bus) -
                     priceBursts(coldBurstWords_, bus),
                 static_cast<double>(accesses_ - coldMisses_));
}

double
CacheStats::ifetchMissRatio() const
{
    return ratio(ifetchMisses_, ifetchAccesses_);
}

double
CacheStats::totalTrafficRatio() const
{
    return ratio(wordsFetched_ + writeWords_ + storeWords_ +
                     writebackWords_,
                 accesses_ + writeAccesses_);
}

double
CacheStats::redundantLoadFraction() const
{
    return ratio(redundantWords_, wordsFetched_);
}

double
CacheStats::meanSubBlocksTouched() const
{
    return residencyTouched_.mean();
}

double
CacheStats::neverReferencedFraction() const
{
    if (subBlocksPerBlock_ == 0)
        return 0.0;
    return 1.0 - meanSubBlocksTouched() /
                     static_cast<double>(subBlocksPerBlock_);
}

void
CacheStats::dump(std::ostream &os) const
{
    os << strfmt("accesses            %12llu\n",
                 static_cast<unsigned long long>(accesses_));
    os << strfmt("misses              %12llu  (block %llu, sub-block "
                 "%llu, cold %llu)\n",
                 static_cast<unsigned long long>(misses_),
                 static_cast<unsigned long long>(blockMisses_),
                 static_cast<unsigned long long>(subBlockMisses()),
                 static_cast<unsigned long long>(coldMisses_));
    os << strfmt("ifetch accesses     %12llu  (misses %llu)\n",
                 static_cast<unsigned long long>(ifetchAccesses_),
                 static_cast<unsigned long long>(ifetchMisses_));
    os << strfmt("write accesses      %12llu  (misses %llu, words "
                 "%llu; excluded from metrics)\n",
                 static_cast<unsigned long long>(writeAccesses_),
                 static_cast<unsigned long long>(writeMisses_),
                 static_cast<unsigned long long>(writeWords_));
    os << strfmt("words fetched       %12llu  in %llu bursts "
                 "(redundant %llu)\n",
                 static_cast<unsigned long long>(wordsFetched_),
                 static_cast<unsigned long long>(bursts_),
                 static_cast<unsigned long long>(redundantWords_));
    os << strfmt("store/writeback     %12llu / %llu words (bus "
                 "traffic incl. writes: %.6f)\n",
                 static_cast<unsigned long long>(storeWords_),
                 static_cast<unsigned long long>(writebackWords_),
                 totalTrafficRatio());
    os << strfmt("evictions           %12llu\n",
                 static_cast<unsigned long long>(evictions_));
    os << strfmt("miss ratio          %12.6f  (warm %.6f)\n",
                 missRatio(), warmMissRatio());
    os << strfmt("traffic ratio       %12.6f  (warm %.6f)\n",
                 trafficRatio(), warmTrafficRatio());
    const NibbleModeBus nibble;
    os << strfmt("nibble traffic      %12.6f\n",
                 scaledTrafficRatio(nibble));
    os << strfmt("mean sub-blocks touched per residency  %.4f "
                 "(never referenced %.1f%%)\n",
                 meanSubBlocksTouched(),
                 100.0 * neverReferencedFraction());
}

} // namespace occsim
