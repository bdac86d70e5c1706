#include "multi/sweep_runner.hh"

#include <cmath>

#include "coherence/coherent_system.hh"
#include "util/logging.hh"

namespace occsim {

namespace {

// Namespace-scope so summarizeCache carries no per-call init guard:
// the parallel engine summarizes from many threads at once.
const NibbleModeBus kNibbleBus;

/**
 * Combine one metric's per-trace estimates into the cross-trace
 * average: the mean of T independent trace means has standard error
 * sqrt(sum of per-trace stderr^2) / T.
 */
MetricEstimate
combineEstimates(const std::vector<std::vector<SweepResult>> &runs,
                 std::size_t c,
                 MetricEstimate SampleEstimates::*metric)
{
    MetricEstimate out;
    double var_sum = 0.0;
    for (const auto &run : runs) {
        const MetricEstimate &est = run[c].sampled.*metric;
        out.mean += est.mean;
        var_sum += est.stdErr * est.stdErr;
    }
    const double n = static_cast<double>(runs.size());
    out.mean /= n;
    out.stdErr = std::sqrt(var_sum) / n;
    out.ci95 = kCi95Z * out.stdErr;
    return out;
}

/** Cross-trace average of per-trace sampling estimates (all runs of
 *  config @p c must be sampled.active). */
SampleEstimates
averageEstimates(const std::vector<std::vector<SweepResult>> &runs,
                 std::size_t c)
{
    SampleEstimates out;
    out.active = true;
    out.unitRefs = runs.front()[c].sampled.unitRefs;
    out.intervalUnits = runs.front()[c].sampled.intervalUnits;
    out.warmupRefs = runs.front()[c].sampled.warmupRefs;
    for (const auto &run : runs) {
        out.units += run[c].sampled.units;
        out.measuredRefs += run[c].sampled.measuredRefs;
    }
    out.missRatio =
        combineEstimates(runs, c, &SampleEstimates::missRatio);
    out.warmMissRatio =
        combineEstimates(runs, c, &SampleEstimates::warmMissRatio);
    out.trafficRatio =
        combineEstimates(runs, c, &SampleEstimates::trafficRatio);
    out.warmTrafficRatio =
        combineEstimates(runs, c, &SampleEstimates::warmTrafficRatio);
    out.nibbleTrafficRatio = combineEstimates(
        runs, c, &SampleEstimates::nibbleTrafficRatio);
    out.warmNibbleTrafficRatio = combineEstimates(
        runs, c, &SampleEstimates::warmNibbleTrafficRatio);
    return out;
}

/** Cross-trace average of coherency summaries (all runs of config
 *  @p c must be coherency.active): derived doubles average exactly
 *  like the headline metrics, counters become rounded integer
 *  means. */
CoherencySummary
averageCoherency(const std::vector<std::vector<SweepResult>> &runs,
                 std::size_t c)
{
    const double n = static_cast<double>(runs.size());
    CoherencySummary out;
    out.active = true;
    out.cores = runs.front()[c].coherency.cores;
    out.coreMissRatios.assign(out.cores, 0.0);
    double reads = 0.0, rfo = 0.0, upgrades = 0.0, invals = 0.0;
    double c2c = 0.0, c2c_words = 0.0, snoop_words = 0.0;
    for (const auto &run : runs) {
        const CoherencySummary &coh = run[c].coherency;
        occsim_assert(coh.cores == out.cores,
                      "core count differs between runs");
        reads += static_cast<double>(coh.busReads);
        rfo += static_cast<double>(coh.busReadForOwnership);
        upgrades += static_cast<double>(coh.busUpgrades);
        invals += static_cast<double>(coh.invalidations);
        c2c += static_cast<double>(coh.cacheToCacheTransfers);
        c2c_words += static_cast<double>(coh.c2cWords);
        snoop_words += static_cast<double>(coh.snoopWritebackWords);
        out.invalidationsPerKiloRef += coh.invalidationsPerKiloRef;
        out.coherenceTrafficRatio += coh.coherenceTrafficRatio;
        for (std::uint32_t i = 0; i < out.cores; ++i)
            out.coreMissRatios[i] += coh.coreMissRatios[i];
    }
    const auto mean = [n](double sum) {
        return static_cast<std::uint64_t>(std::llround(sum / n));
    };
    out.busReads = mean(reads);
    out.busReadForOwnership = mean(rfo);
    out.busUpgrades = mean(upgrades);
    out.invalidations = mean(invals);
    out.cacheToCacheTransfers = mean(c2c);
    out.c2cWords = mean(c2c_words);
    out.snoopWritebackWords = mean(snoop_words);
    out.invalidationsPerKiloRef /= n;
    out.coherenceTrafficRatio /= n;
    for (std::uint32_t i = 0; i < out.cores; ++i)
        out.coreMissRatios[i] /= n;
    return out;
}

} // namespace

SweepResult
summarizeStats(const CacheConfig &config, std::uint64_t gross_bytes,
               const CacheStats &stats)
{
    SweepResult result;
    result.config = config;
    result.grossBytes = gross_bytes;
    result.missRatio = stats.missRatio();
    result.warmMissRatio = stats.warmMissRatio();
    result.trafficRatio = stats.trafficRatio();
    result.warmTrafficRatio = stats.warmTrafficRatio();
    result.nibbleTrafficRatio = stats.scaledTrafficRatio(kNibbleBus);
    result.warmNibbleTrafficRatio =
        stats.warmScaledTrafficRatio(kNibbleBus);
    result.meanSubBlocksTouched = stats.meanSubBlocksTouched();
    result.neverReferencedFraction = stats.neverReferencedFraction();
    return result;
}

bool
sameSweepResult(const SweepResult &a, const SweepResult &b)
{
    return a.config == b.config && a.grossBytes == b.grossBytes &&
           a.missRatio == b.missRatio &&
           a.warmMissRatio == b.warmMissRatio &&
           a.trafficRatio == b.trafficRatio &&
           a.warmTrafficRatio == b.warmTrafficRatio &&
           a.nibbleTrafficRatio == b.nibbleTrafficRatio &&
           a.warmNibbleTrafficRatio == b.warmNibbleTrafficRatio &&
           a.meanSubBlocksTouched == b.meanSubBlocksTouched &&
           a.neverReferencedFraction == b.neverReferencedFraction;
}

SweepResult
summarizeCache(const Cache &cache)
{
    return summarizeStats(cache.config(),
                          cache.geometry().grossBytes(),
                          cache.stats());
}

SweepResult
summarizeCoherent(const CacheConfig &config,
                  const CoherentSystem &system)
{
    CacheStats merged = system.core(0).stats();
    std::uint64_t gross = system.core(0).geometry().grossBytes();
    for (std::uint32_t c = 1; c < system.numCores(); ++c) {
        merged.mergeFrom(system.core(c).stats());
        gross += system.core(c).geometry().grossBytes();
    }
    SweepResult result = summarizeStats(config, gross, merged);

    const CoherencyStats &bus = system.bus();
    CoherencySummary &coh = result.coherency;
    coh.active = true;
    coh.cores = system.numCores();
    coh.busReads = bus.busReads;
    coh.busReadForOwnership = bus.busReadForOwnership;
    coh.busUpgrades = bus.busUpgrades;
    coh.invalidations = bus.invalidations;
    coh.cacheToCacheTransfers = bus.cacheToCacheTransfers;
    coh.c2cWords = bus.c2cWords;
    coh.snoopWritebackWords = bus.snoopWritebackWords;
    const std::uint64_t total_refs =
        merged.accesses() + merged.writeAccesses();
    coh.invalidationsPerKiloRef =
        total_refs == 0 ? 0.0
                        : 1000.0 *
                              static_cast<double>(bus.invalidations) /
                              static_cast<double>(total_refs);
    coh.coherenceTrafficRatio =
        merged.accesses() == 0
            ? 0.0
            : static_cast<double>(bus.c2cWords +
                                  bus.snoopWritebackWords) /
                  static_cast<double>(merged.accesses());
    coh.coreMissRatios.reserve(system.numCores());
    for (std::uint32_t c = 0; c < system.numCores(); ++c)
        coh.coreMissRatios.push_back(system.core(c).stats().missRatio());
    return result;
}

SweepResult
runSingle(const CacheConfig &config, TraceSource &source,
          std::uint64_t max_refs)
{
    if (config.partition == CachePartition::SplitID) {
        const CacheConfig half = evenSplitHalf(config);
        Cache icache(half);
        Cache dcache(half);
        MemRef ref;
        for (std::uint64_t count = 0;
             (max_refs == 0 || count < max_refs) && source.next(ref);
             ++count)
            (ref.isInstruction() ? icache : dcache).access(ref);
        icache.finalizeResidencies();
        dcache.finalizeResidencies();
        CacheStats merged = icache.stats();
        merged.mergeFrom(dcache.stats());
        return summarizeStats(config, 2 * icache.geometry().grossBytes(),
                              merged);
    }
    Cache cache(config);
    cache.run(source, max_refs);
    return summarizeCache(cache);
}

std::vector<SweepResult>
averageResults(const std::vector<std::vector<SweepResult>> &runs)
{
    occsim_assert(!runs.empty(), "no runs to average");
    const std::size_t num_configs = runs.front().size();
    for (const auto &run : runs) {
        occsim_assert(run.size() == num_configs,
                      "runs cover different config counts");
    }

    std::vector<SweepResult> averaged = runs.front();
    const double n = static_cast<double>(runs.size());
    for (std::size_t c = 0; c < num_configs; ++c) {
        SweepResult &out = averaged[c];
        out.missRatio = 0.0;
        out.warmMissRatio = 0.0;
        out.trafficRatio = 0.0;
        out.warmTrafficRatio = 0.0;
        out.nibbleTrafficRatio = 0.0;
        out.warmNibbleTrafficRatio = 0.0;
        out.meanSubBlocksTouched = 0.0;
        out.neverReferencedFraction = 0.0;
        bool all_sampled = true;
        bool all_coherent = true;
        for (const auto &run : runs) {
            occsim_assert(run[c].config == out.config,
                          "config order differs between runs");
            out.missRatio += run[c].missRatio;
            out.warmMissRatio += run[c].warmMissRatio;
            out.trafficRatio += run[c].trafficRatio;
            out.warmTrafficRatio += run[c].warmTrafficRatio;
            out.nibbleTrafficRatio += run[c].nibbleTrafficRatio;
            out.warmNibbleTrafficRatio += run[c].warmNibbleTrafficRatio;
            out.meanSubBlocksTouched += run[c].meanSubBlocksTouched;
            out.neverReferencedFraction += run[c].neverReferencedFraction;
            all_sampled = all_sampled && run[c].sampled.active;
            all_coherent = all_coherent && run[c].coherency.active;
        }
        out.missRatio /= n;
        out.warmMissRatio /= n;
        out.trafficRatio /= n;
        out.warmTrafficRatio /= n;
        out.nibbleTrafficRatio /= n;
        out.warmNibbleTrafficRatio /= n;
        out.meanSubBlocksTouched /= n;
        out.neverReferencedFraction /= n;
        out.sampled = all_sampled ? averageEstimates(runs, c)
                                  : SampleEstimates{};
        out.coherency = all_coherent ? averageCoherency(runs, c)
                                     : CoherencySummary{};
    }
    return averaged;
}

} // namespace occsim
