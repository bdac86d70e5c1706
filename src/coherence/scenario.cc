#include "coherence/scenario.hh"

#include "cache/cache_geometry.hh"
#include "trace/packed_trace.hh"
#include "util/str.hh"

namespace occsim {

namespace {

/** A valid shape inside the coherent engine's supported subset for
 *  one core's cache. */
std::string
validateCoreConfig(const CacheConfig &config, std::uint32_t core)
{
    const std::string shape = validateConfig(config);
    if (!shape.empty())
        return strfmt("core %u: %s", core, shape.c_str());
    if (config.write != WritePolicy::CopyBack) {
        return strfmt("core %u: MESI is a write-back protocol; the "
                      "scenario requires copy-back caches",
                      core);
    }
    if (!config.writeAllocate)
        return strfmt("core %u: scenarios require write-allocate",
                      core);
    if (config.fetch != FetchPolicy::Demand) {
        return strfmt("core %u: scenarios require demand fetch (got "
                      "%s)",
                      core, fetchPolicyName(config.fetch));
    }
    if (config.partition != CachePartition::Unified) {
        return strfmt("core %u: scenarios require unified caches",
                      core);
    }
    return "";
}

} // namespace

std::string
validateScenario(const ScenarioConfig &scenario,
                 const std::vector<CacheConfig> &configs)
{
    if (scenario.cores == 0)
        return "scenario needs at least one core";
    if (!scenario.multicore()) {
        if (!scenario.coreConfigs.empty()) {
            return "per-core configs require a multicore scenario "
                   "(cores >= 2)";
        }
        return "";
    }
    if (scenario.cores > PackedRecord::kMaxCores) {
        return strfmt("scenario asks for %u cores; the packed trace "
                      "format caps core ids at %u",
                      scenario.cores, PackedRecord::kMaxCores);
    }
    if (!scenario.coreConfigs.empty()) {
        if (scenario.coreConfigs.size() != scenario.cores) {
            return strfmt("scenario has %zu per-core configs for %u "
                          "cores",
                          scenario.coreConfigs.size(), scenario.cores);
        }
        if (configs.size() != 1) {
            return "per-core configs replace the sweep grid; the "
                   "request must carry exactly one grid config";
        }
    }
    if (configs.empty())
        return "scenario sweep needs at least one config";
    for (const CacheConfig &grid : configs) {
        const CacheConfig &first =
            scenarioCoreConfig(scenario, grid, 0);
        for (std::uint32_t core = 0; core < scenario.cores; ++core) {
            const CacheConfig &config =
                scenarioCoreConfig(scenario, grid, core);
            const std::string error = validateCoreConfig(config, core);
            if (!error.empty())
                return error;
            // The bus transfers sub-blocks and snoops block
            // addresses: those granularities must agree across the
            // cores or the traffic accounting is meaningless.
            if (config.blockSize != first.blockSize ||
                config.subBlockSize != first.subBlockSize ||
                config.wordSize != first.wordSize) {
                return strfmt("core %u: all cores must share block, "
                              "sub-block and word sizes",
                              core);
            }
        }
    }
    return "";
}

const CacheConfig &
scenarioCoreConfig(const ScenarioConfig &scenario,
                   const CacheConfig &grid_config, std::uint32_t core)
{
    if (!scenario.coreConfigs.empty())
        return scenario.coreConfigs[core];
    return grid_config;
}

std::string
scenarioName(const ScenarioConfig &scenario,
             const CacheConfig &grid_config)
{
    return strfmt("%ux%s", scenario.cores,
                  grid_config.shortName().c_str());
}

} // namespace occsim
