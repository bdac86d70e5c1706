#include "multi/sample_replay.hh"

#include <algorithm>
#include <cstring>

#include "cache/cache_geometry.hh"
#include "multi/sweep_runner.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace occsim {

namespace {

/** Empty-slot sentinel of warm rows and checkpoints; matches the
 *  Cache frame sentinel (block addresses are >> blockBits >= 1, so
 *  all-ones can never name a real block). */
constexpr Addr kEmptySlot = ~Addr(0);

/** Chunk length of the warming pass: long enough to amortize the
 *  per-group loop setup, short enough that the trace chunk stays
 *  cache-resident while every group of the family re-reads it. */
constexpr std::uint64_t kWarmChunk = 4096;

} // namespace

std::vector<SampleUnit>
planSampleUnits(std::uint64_t limit, const SampleSpec &spec)
{
    std::vector<SampleUnit> units;
    if (limit == 0)
        return units;
    const std::uint64_t unit = std::max<std::uint64_t>(
        1, spec.unitRefs);
    const std::uint64_t stride =
        unit * std::max<std::uint64_t>(1, spec.intervalUnits);
    Rng rng(spec.seed);
    for (std::uint64_t window = spec.warmupRefs;
         window + stride <= limit; window += stride) {
        const std::uint64_t offset =
            spec.stratified ? rng.below(stride - unit + 1) : 0;
        units.push_back(
            SampleUnit{window + offset, window + offset + unit});
    }
    if (units.empty()) {
        // Nothing fits (short trace or oversized warmup): measure
        // the trace tail as one unit so smoke-length runs still
        // produce a (single-observation, zero-CI) estimate.
        const std::uint64_t begin = limit > unit ? limit - unit : 0;
        units.push_back(SampleUnit{begin, limit});
    }
    return units;
}

bool
checkpointEligible(const CacheConfig &config)
{
    // A pure per-set LRU stack: the warm MRU arrays are LRU stacks,
    // and only LRU has the prefix-inclusion property that lets one
    // maxAssoc-deep row seed every shallower associativity.
    return config.replacement == ReplacementPolicy::LRU &&
           config.fetch == FetchPolicy::Demand &&
           config.subBlockSize == config.blockSize &&
           config.writeAllocate &&
           config.partition == CachePartition::Unified;
}

SampleReplay::SampleReplay(const std::vector<CacheConfig> &configs,
                           const SampleSpec &spec)
    : spec_(spec), configs_(configs)
{
    occsim_assert(!configs_.empty(),
                  "sampled sweep needs at least one config");
}

void
SampleReplay::prepare(const PackedTrace &trace, std::uint64_t max_refs)
{
    limit_ = trace.size();
    if (max_refs != 0)
        limit_ = std::min(limit_, max_refs);
    units_ = planSampleUnits(limit_, spec_);
    measuredRefs_ = 0;
    for (const SampleUnit &u : units_)
        measuredRefs_ += u.end - u.begin;

    routes_.assign(configs_.size(), Route{});
    families_.clear();
    estimates_.assign(configs_.size(), SampleEstimates{});
    means_.assign(configs_.size(), std::array<double, 6>{});
    grossBytes_.assign(configs_.size(), 0);

    if (spec_.forceDirect)
        return;

    // Group the checkpoint-eligible configs: one warming family per
    // block size, one group per set count (maxAssoc-deep rows serve
    // every member associativity via LRU inclusion).
    for (std::size_t c = 0; c < configs_.size(); ++c) {
        if (!checkpointEligible(configs_[c]))
            continue;
        const CacheGeometry geom(configs_[c]);
        const std::uint32_t block_bits = geom.blockBits();
        const std::uint32_t num_sets =
            static_cast<std::uint32_t>(geom.numSets());
        const std::uint32_t assoc = geom.assoc();

        std::size_t f = 0;
        for (; f < families_.size(); ++f) {
            if (families_[f].blockBits == block_bits)
                break;
        }
        if (f == families_.size()) {
            families_.push_back(WarmFamily{});
            families_.back().blockBits = block_bits;
        }
        WarmFamily &family = families_[f];

        std::size_t g = 0;
        for (; g < family.groups.size(); ++g) {
            if (family.groups[g].numSets == num_sets)
                break;
        }
        if (g == family.groups.size()) {
            family.groups.push_back(WarmGroup{});
            family.groups.back().numSets = num_sets;
        }
        WarmGroup &group = family.groups[g];
        group.assoc = std::max(group.assoc, assoc);

        routes_[c].family = static_cast<std::int32_t>(f);
        routes_[c].group = static_cast<std::int32_t>(g);
    }

    for (WarmFamily &family : families_) {
        for (WarmGroup &group : family.groups) {
            const std::size_t row_words =
                static_cast<std::size_t>(group.numSets) * group.assoc;
            group.rows.assign(row_words, kEmptySlot);
            group.checkpoints.assign(units_.size() * row_words,
                                     kEmptySlot);
        }
    }
}

template <std::uint32_t A>
void
SampleReplay::updateRowsSpec(Addr *rows, std::uint32_t set_mask,
                             std::uint32_t block_bits,
                             const PackedRecord *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Addr blk = refs[i].addr() >> block_bits;
        Addr *row =
            rows + static_cast<std::size_t>(blk & set_mask) * A;
        if (row[0] == blk)
            continue;  // MRU hit — the hot case of any real trace
        if constexpr (A == 1) {
            row[0] = blk;
        } else {
            // Find blk (or fall off the LRU end), then shift the
            // more-recent entries down one and re-insert at MRU.
            std::uint32_t pos = 1;
            while (pos < A - 1 && row[pos] != blk)
                ++pos;
            for (; pos > 0; --pos)
                row[pos] = row[pos - 1];
            row[0] = blk;
        }
    }
}

void
SampleReplay::updateRows(WarmGroup &group, std::uint32_t block_bits,
                         const PackedRecord *refs, std::size_t n)
{
    Addr *rows = group.rows.data();
    const std::uint32_t set_mask = group.numSets - 1;
    switch (group.assoc) {
      case 1:
        updateRowsSpec<1>(rows, set_mask, block_bits, refs, n);
        break;
      case 2:
        updateRowsSpec<2>(rows, set_mask, block_bits, refs, n);
        break;
      case 4:
        updateRowsSpec<4>(rows, set_mask, block_bits, refs, n);
        break;
      case 8:
        updateRowsSpec<8>(rows, set_mask, block_bits, refs, n);
        break;
      default:
        // Runtime-associativity fallback, same algorithm.
        for (std::size_t i = 0; i < n; ++i) {
            const Addr blk = refs[i].addr() >> block_bits;
            Addr *row =
                rows + static_cast<std::size_t>(blk & set_mask) *
                           group.assoc;
            if (row[0] == blk)
                continue;
            std::uint32_t pos = 1;
            while (pos < group.assoc - 1 && row[pos] != blk)
                ++pos;
            for (; pos > 0; --pos)
                row[pos] = row[pos - 1];
            row[0] = blk;
        }
        break;
    }
}

void
SampleReplay::runWarmTask(std::size_t family_index,
                          const PackedTrace &trace)
{
    OCCSIM_TELEM_STAGE("engine.sample");
    WarmFamily &family = families_[family_index];
    const PackedRecord *data = trace.data();
    const std::uint32_t block_bits = family.blockBits;

    std::size_t next_unit = 0;
    std::uint64_t pos = 0;
    while (pos < limit_ || next_unit < units_.size()) {
        // Snapshot every unit whose boundary sits at pos (live
        // points: the state a full warm pass would have here).
        while (next_unit < units_.size() &&
               units_[next_unit].begin == pos) {
            for (WarmGroup &group : family.groups) {
                const std::size_t row_words = group.rows.size();
                std::memcpy(group.checkpoints.data() +
                                next_unit * row_words,
                            group.rows.data(),
                            row_words * sizeof(Addr));
            }
            ++next_unit;
        }
        if (pos >= limit_)
            break;
        std::uint64_t stop = std::min(limit_, pos + kWarmChunk);
        if (next_unit < units_.size())
            stop = std::min(stop, units_[next_unit].begin);
        for (WarmGroup &group : family.groups) {
            updateRows(group, block_bits, data + pos,
                       static_cast<std::size_t>(stop - pos));
        }
        pos = stop;
    }
    OCCSIM_TELEM_COUNT("engine.sample.warm_refs",
                       limit_ * family.groups.size());
}

void
SampleReplay::runMeasureTask(std::size_t config_index,
                             const PackedTrace &trace)
{
    OCCSIM_TELEM_STAGE("engine.sample");
    const CacheConfig &config = configs_[config_index];
    const PackedRecord *data = trace.data();
    const Route route = routes_[config_index];

    Cache cache(config);
    grossBytes_[config_index] = cache.geometry().grossBytes();

    UnitEstimator est[6];
    const auto record_unit = [&] {
        const SweepResult unit = summarizeStats(
            config, cache.geometry().grossBytes(), cache.stats());
        est[0].add(unit.missRatio);
        est[1].add(unit.warmMissRatio);
        est[2].add(unit.trafficRatio);
        est[3].add(unit.warmTrafficRatio);
        est[4].add(unit.nibbleTrafficRatio);
        est[5].add(unit.warmNibbleTrafficRatio);
    };

    if (route.family >= 0) {
        // Checkpoint path: every unit restores the shared warm
        // snapshot, replays just the unit, and contributes one
        // observation. The whole grid rides one warming pass.
        const WarmGroup &group =
            families_[static_cast<std::size_t>(route.family)]
                .groups[static_cast<std::size_t>(route.group)];
        for (std::size_t u = 0; u < units_.size(); ++u) {
            const SampleUnit unit = units_[u];
            const std::size_t row_words =
                static_cast<std::size_t>(group.numSets) *
                group.assoc;
            cache.seedWarmState(
                group.checkpoints.data() + u * row_words,
                group.assoc);
            cache.resetStats();
            cache.replayPacked(
                data + unit.begin,
                static_cast<std::size_t>(unit.end - unit.begin));
            record_unit();
        }
    } else {
        // Direct path: this config warms its own cache through the
        // Record=false kernel between units (non-LRU / sub-block /
        // non-demand configs, or spec.forceDirect).
        std::uint64_t pos = 0;
        for (const SampleUnit &unit : units_) {
            if (unit.begin > pos) {
                cache.warmPacked(
                    data + pos,
                    static_cast<std::size_t>(unit.begin - pos));
            }
            cache.resetStats();
            cache.replayPacked(
                data + unit.begin,
                static_cast<std::size_t>(unit.end - unit.begin));
            record_unit();
            pos = unit.end;
        }
    }

    SampleEstimates &out = estimates_[config_index];
    out.active = true;
    out.units = units_.size();
    out.unitRefs = spec_.unitRefs;
    out.intervalUnits = spec_.intervalUnits;
    out.warmupRefs = spec_.warmupRefs;
    out.measuredRefs = measuredRefs_;
    out.missRatio = est[0].estimate();
    out.warmMissRatio = est[1].estimate();
    out.trafficRatio = est[2].estimate();
    out.warmTrafficRatio = est[3].estimate();
    out.nibbleTrafficRatio = est[4].estimate();
    out.warmNibbleTrafficRatio = est[5].estimate();
    means_[config_index] = {
        out.missRatio.mean,          out.warmMissRatio.mean,
        out.trafficRatio.mean,       out.warmTrafficRatio.mean,
        out.nibbleTrafficRatio.mean, out.warmNibbleTrafficRatio.mean,
    };
    OCCSIM_TELEM_COUNT("engine.sample.refs", measuredRefs_);
}

std::vector<SweepResult>
SampleReplay::results() const
{
    std::vector<SweepResult> out(configs_.size());
    for (std::size_t c = 0; c < configs_.size(); ++c) {
        SweepResult &result = out[c];
        result.config = configs_[c];
        result.grossBytes = grossBytes_[c];
        result.missRatio = means_[c][0];
        result.warmMissRatio = means_[c][1];
        result.trafficRatio = means_[c][2];
        result.warmTrafficRatio = means_[c][3];
        result.nibbleTrafficRatio = means_[c][4];
        result.warmNibbleTrafficRatio = means_[c][5];
        result.sampled = estimates_[c];
    }
    return out;
}

} // namespace occsim
