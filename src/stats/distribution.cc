#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

Distribution::Distribution(std::string name, std::size_t num_buckets)
{
    init(std::move(name), num_buckets);
}

void
Distribution::init(std::string name, std::size_t num_buckets)
{
    occsim_assert(num_buckets > 0, "distribution needs >= 1 bucket");
    name_ = std::move(name);
    buckets_.assign(num_buckets + 1, 0);
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
}

void
Distribution::mergeFrom(const Distribution &other)
{
    occsim_assert(buckets_.size() == other.buckets_.size(),
                  "merging distributions of different shape (%zu vs "
                  "%zu buckets)",
                  numBuckets(), other.numBuckets());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
}

std::uint64_t
Distribution::samples() const
{
    return std::accumulate(buckets_.begin(), buckets_.end(),
                           std::uint64_t{0});
}

std::uint64_t
Distribution::sum() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        total += i * buckets_[i];
    return total;
}

std::uint64_t
Distribution::bucket(std::size_t i) const
{
    occsim_assert(i < numBuckets(), "bucket index %zu out of range", i);
    return buckets_[i];
}

double
Distribution::mean() const
{
    const std::uint64_t n = samples();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

double
Distribution::variance() const
{
    const std::uint64_t n = samples();
    if (n == 0)
        return 0.0;
    const double mu = mean();
    double total = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double d = static_cast<double>(i) - mu;
        total += d * d * static_cast<double>(buckets_[i]);
    }
    return total / static_cast<double>(n);
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

std::uint64_t
Distribution::percentile(double p) const
{
    occsim_assert(p >= 0.0 && p <= 1.0, "percentile needs p in [0,1]");
    const std::uint64_t n = samples();
    if (n == 0)
        return 0;
    std::uint64_t cumulative = 0;
    const auto target =
        static_cast<std::uint64_t>(p * static_cast<double>(n));
    for (std::size_t i = 0; i < numBuckets(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= target && cumulative > 0)
            return i;
    }
    return numBuckets();
}

double
Distribution::cdfAt(std::uint64_t v) const
{
    const std::uint64_t n = samples();
    if (n == 0)
        return 0.0;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < buckets_.size() && i <= v; ++i)
        below += buckets_[i];
    return static_cast<double>(below) / static_cast<double>(n);
}

void
Distribution::dump(std::ostream &os) const
{
    const std::uint64_t n = samples();
    os << name_ << " (" << n << " samples, mean "
       << strfmt("%.4f", mean()) << ")\n";
    auto fraction = [n](std::uint64_t count) {
        return n == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(n);
    };
    for (std::size_t i = 0; i < numBuckets(); ++i) {
        if (buckets_[i] == 0)
            continue;
        os << strfmt("  %6zu  %12llu  %8.4f\n", i,
                     static_cast<unsigned long long>(buckets_[i]),
                     fraction(buckets_[i]));
    }
    if (overflow() != 0) {
        os << strfmt("  >=%4zu  %12llu  %8.4f\n", numBuckets(),
                     static_cast<unsigned long long>(overflow()),
                     fraction(overflow()));
    }
}

} // namespace occsim
