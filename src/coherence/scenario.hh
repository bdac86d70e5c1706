/**
 * @file
 * ScenarioConfig: the multicore half of a sweep request.
 *
 * The original SweepRequest was single-cache-shaped — a grid of
 * CacheConfigs, each priced independently against each trace. A
 * coherency study needs one more axis: how many private caches share
 * the bus, and what each of them looks like. ScenarioConfig carries
 * exactly that, with the crucial default that a 1-core scenario IS
 * the old request: runSweep() routes cores == 1 through the existing
 * single-cache engines untouched, so every pre-redesign caller gets
 * bit-identical results without changes.
 *
 * Multicore scenarios (cores >= 2) route to the coherent MESI engine
 * (coherence/coherent_system.hh), which supports the protocol's
 * natural subset: copy-back, write-allocate, demand fetch, unified
 * caches. validateScenario() enforces that subset, and every core's
 * cache shape (validateConfig), up front with a human-readable error;
 * validateSweepRequest() calls it for runSweep() and the sweep server
 * alike, so the wire protocol can never smuggle an unsupported
 * scenario past the API.
 */

#ifndef OCCSIM_COHERENCE_SCENARIO_HH
#define OCCSIM_COHERENCE_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"

namespace occsim {

/** Core count + per-core cache shapes of one coherent scenario. */
struct ScenarioConfig
{
    /** Number of private caches on the snooping bus. 1 (the default)
     *  means "no scenario": the request behaves exactly as before
     *  the redesign. Capped at PackedRecord::kMaxCores (8). */
    std::uint32_t cores = 1;

    /**
     * Optional per-core cache configurations (asymmetric scenarios).
     * Empty means every core clones the grid config being swept;
     * non-empty requires size() == cores and collapses the sweep
     * grid to a single config (the per-core shapes replace it).
     */
    std::vector<CacheConfig> coreConfigs;

    bool multicore() const { return cores > 1; }

    bool operator==(const ScenarioConfig &other) const = default;
};

/**
 * Validate @p scenario against the sweep grid @p configs.
 * @return "" when valid, else one human-readable reason. A multicore
 * scenario checks every core's effective config, per-core shapes
 * included, against validateConfig and the MESI subset. A 1-core
 * scenario with no per-core configs is always valid (it is the
 * pre-redesign request shape).
 */
std::string validateScenario(const ScenarioConfig &scenario,
                             const std::vector<CacheConfig> &configs);

/** The effective configuration of @p core under @p scenario when the
 *  sweep grid entry is @p grid_config. */
const CacheConfig &scenarioCoreConfig(const ScenarioConfig &scenario,
                                      const CacheConfig &grid_config,
                                      std::uint32_t core);

/** Short label for reports: "2x16,8" style (cores x grid short
 *  name), or "1x..." for the degenerate case. */
std::string scenarioName(const ScenarioConfig &scenario,
                         const CacheConfig &grid_config);

} // namespace occsim

#endif // OCCSIM_COHERENCE_SCENARIO_HH
