/**
 * @file
 * A fixed-bucket histogram used for distributional measurements such
 * as the number of sub-blocks touched per block residency (the paper's
 * "72 percent of the sub-blocks in a block are never referenced"
 * observation) and LRU stack-distance profiles.
 */

#ifndef OCCSIM_STATS_DISTRIBUTION_HH
#define OCCSIM_STATS_DISTRIBUTION_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace occsim {

/**
 * Histogram over the integer domain [0, numBuckets); samples at or
 * above numBuckets accumulate in an overflow bucket, stored as one
 * more bucket at index numBuckets and valued numBuckets. Sampling
 * bumps one bucket; the sample count and the weighted sum are derived
 * from the buckets.
 */
class Distribution
{
  public:
    Distribution() = default;
    Distribution(std::string name, std::size_t num_buckets);

    void init(std::string name, std::size_t num_buckets);

    /** Record one observation of @p value (weight 1). */
    void sample(std::uint64_t value) { sample(value, 1); }

    /** Record @p weight observations of @p value. Inline: the cache
     *  miss path samples the burst histogram per miss, and an
     *  out-of-line call would force the replay kernels to spill loop
     *  state around it. */
    void sample(std::uint64_t value, std::uint64_t weight)
    {
        occsim_assert(!buckets_.empty(),
                      "distribution not initialized");
        const std::size_t overflow = buckets_.size() - 1;
        buckets_[value < overflow ? value : overflow] += weight;
    }

    void reset();

    /**
     * Add another histogram's counts into this one, bucket by bucket.
     * Both must have the same bucket count. Integer sums only, so
     * merging per-shard histograms is exact: the merged distribution
     * equals the one an unsharded run would have recorded.
     */
    void mergeFrom(const Distribution &other);

    /** Observations recorded (overflow included). */
    std::uint64_t samples() const;
    /** Sum of the recorded values, overflow counted at numBuckets —
     *  exact for a histogram nothing overflowed. */
    std::uint64_t sum() const;
    std::uint64_t bucket(std::size_t i) const;
    std::uint64_t overflow() const
    {
        return buckets_.empty() ? 0 : buckets_.back();
    }
    std::size_t numBuckets() const
    {
        return buckets_.empty() ? 0 : buckets_.size() - 1;
    }

    /** Mean of the recorded values (overflow counted at numBuckets). */
    double mean() const;

    /** Population variance (overflow counted at numBuckets). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /**
     * Smallest value v with cdfAt(v) >= @p p (p in [0,1]); returns
     * numBuckets when only the overflow bucket satisfies it.
     */
    std::uint64_t percentile(double p) const;

    /** Fraction of samples with value <= @p v. */
    double cdfAt(std::uint64_t v) const;

    const std::string &name() const { return name_; }

    /** Print "value count fraction" lines for non-empty buckets. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    /** numBuckets in-range counts, then the overflow count. */
    std::vector<std::uint64_t> buckets_;
};

} // namespace occsim

#endif // OCCSIM_STATS_DISTRIBUTION_HH
