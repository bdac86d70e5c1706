#include "harness/paper_tables.hh"

#include <ostream>

#include "cache/sector_cache.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"

namespace occsim {

void
runTable6(std::ostream &os)
{
    printBanner(os, "Table 6: 360/85 sector cache vs set-associative "
                    "(16 KB, 64-byte blocks, LRU)");

    // The paper drove the 360/85 with a System/360 job mix (1
    // Fortran Go, 1 Fortran compile, 2 Cobol, 2 PL/I).
    const Suite suite = s360Model85Suite();

    std::vector<CacheConfig> configs;
    configs.push_back(make360Model85Config(suite.profile.wordSize));
    for (const CacheConfig &config :
         table6Comparators(suite.profile.wordSize)) {
        configs.push_back(config);
    }

    SweepRequest request;
    request.traces = buildSuiteTraces(suite);
    request.configs = configs;
    request.label = "table6";
    const auto averaged = runSweep(request).average;
    const double base_miss = averaged[0].missRatio;

    TableWriter table({"organisation", "miss ratio", "relative to 360/85"});
    const char *names[] = {"360/85 (16 x 1024B sectors, 64B sub-blocks)",
                           "4-way set associative", "8-way set associative",
                           "16-way set associative"};
    for (std::size_t i = 0; i < averaged.size(); ++i) {
        table.addRow({names[i], fmtRatio(averaged[i].missRatio),
                      fmtRatio(averaged[i].missRatio / base_miss)});
    }
    table.print(os);

    os << strfmt("\n360/85 sub-blocks referenced per 1024-byte block "
                 "residency: %.2f of 16 (%.1f%% never referenced; "
                 "paper: 11.52 of 16 never referenced = 72%%)\n\n",
                 averaged[0].meanSubBlocksTouched,
                 100.0 * averaged[0].neverReferencedFraction);
}

namespace {

void
table7ForSuite(std::ostream &os, const Suite &suite)
{
    os << "---- " << suite.profile.name << " (word size "
       << suite.profile.wordSize << " bytes, "
       << suite.traces.size() << " traces, unweighted average) ----\n";

    // One combined sweep so each trace is generated exactly once.
    std::vector<CacheConfig> configs;
    for (std::uint32_t net : {64u, 256u, 1024u}) {
        const auto grid = table7Grid(net, suite.profile.wordSize);
        configs.insert(configs.end(), grid.begin(), grid.end());
    }
    const SuiteRun run = runSuite(suite, configs);

    TableWriter table({"net", "gross", "block,sub", "miss", "traffic",
                       "traffic(nibble)"});
    for (const SweepResult &result : run.average) {
        table.addRow({strfmt("%u", result.config.netSize),
                      strfmt("%llu", static_cast<unsigned long long>(
                                         result.grossBytes)),
                      result.config.shortName(),
                      fmtRatio(result.missRatio),
                      fmtRatio(result.trafficRatio),
                      fmtRatio(result.nibbleTrafficRatio)});
    }
    table.print(os);
    os << '\n';
}

} // namespace

void
runTable7Arch(std::ostream &os, int arch_index)
{
    occsim_assert(arch_index >= 0 && arch_index < 4,
                  "arch index out of range");
    table7ForSuite(os, suiteFor(static_cast<Arch>(arch_index)));
}

void
runTable7(std::ostream &os)
{
    printBanner(os, "Table 7: miss/traffic/nibble ratios, net 64/256/"
                    "1024 bytes, all architectures");
    for (const Arch arch : kAllArchs)
        table7ForSuite(os, suiteFor(arch));
}

void
runTable8(std::ostream &os)
{
    printBanner(os, "Table 8: load-forward on Z8000 compiler traces "
                    "(CPP, C1, C2)");

    const Suite suite = z8000CompilerSuite();
    const std::uint32_t word = suite.profile.wordSize;

    struct Entry
    {
        std::uint32_t net, block, sub;
        FetchPolicy fetch;
    };
    const Entry entries[] = {
        {64, 8, 8, FetchPolicy::Demand},
        {64, 8, 2, FetchPolicy::LoadForward},
        {64, 8, 2, FetchPolicy::Demand},
        {64, 2, 2, FetchPolicy::Demand},
        {256, 16, 16, FetchPolicy::Demand},
        {256, 16, 2, FetchPolicy::LoadForward},
        {256, 16, 2, FetchPolicy::Demand},
        {256, 8, 8, FetchPolicy::Demand},
        {256, 8, 2, FetchPolicy::LoadForward},
        {256, 8, 2, FetchPolicy::Demand},
        {256, 2, 2, FetchPolicy::Demand},
    };

    std::vector<CacheConfig> configs;
    for (const Entry &entry : entries) {
        CacheConfig config =
            makeConfig(entry.net, entry.block, entry.sub, word);
        config.fetch = entry.fetch;
        configs.push_back(config);
    }

    const SuiteRun run = runSuite(suite, configs);

    TableWriter table({"net", "gross", "block,sub", "miss", "traffic",
                       "traffic(nibble)"});
    for (const SweepResult &result : run.average) {
        table.addRow({strfmt("%u", result.config.netSize),
                      strfmt("%llu", static_cast<unsigned long long>(
                                         result.grossBytes)),
                      result.config.shortName(),
                      fmtRatio(result.missRatio),
                      fmtRatio(result.trafficRatio),
                      fmtRatio(result.nibbleTrafficRatio)});
    }
    table.print(os);
    os << '\n';
}

} // namespace occsim
