/**
 * @file
 * The first cache memory: the IBM System/360 Model 85 sector cache
 * (Liptay 1968). This example runs the historical organization
 * (16 KB, 16 fully-associative 1024-byte sectors, 64-byte sub-block
 * transfers) against one System/370-class workload, shows why it
 * performs poorly by post-1984 standards (Section 4.1), and prints
 * the distribution of sub-blocks actually referenced per sector
 * residency — the paper found 72% are never touched.
 */

#include <cstdio>
#include <iostream>

#include "cache/cache.hh"
#include "multi/sweep_runner.hh"
#include "workload/suites.hh"

using namespace occsim;

int
main()
{
    const Suite suite = s370Suite();
    const WorkloadSpec &spec = suite.traces.front();  // FGO1
    std::printf("workload: %s (%s)\n\n", spec.name.c_str(),
                spec.description.c_str());
    VectorTrace trace = buildTrace(spec);

    // The historical machine.
    Cache sector(make360Model85Config(suite.profile.wordSize));
    // Run a copy of the trace through a 4-way set-associative cache
    // of the same size and transfer unit for comparison.
    CacheConfig modern;
    modern.netSize = 16 * 1024;
    modern.blockSize = 64;
    modern.subBlockSize = 64;
    modern.assoc = 4;
    modern.wordSize = suite.profile.wordSize;
    Cache set_assoc(modern);

    sector.run(trace);
    trace.reset();
    set_assoc.run(trace);

    std::printf("360/85 sector cache  : %s\n",
                sector.config().fullName().c_str());
    std::printf("  miss ratio %.4f\n", sector.stats().missRatio());
    std::printf("modern comparison    : %s\n",
                modern.fullName().c_str());
    std::printf("  miss ratio %.4f\n\n",
                set_assoc.stats().missRatio());
    std::printf("sector/set-assoc miss ratio: %.2fx (paper: the "
                "360/85 misses ~3x more)\n\n",
                sector.stats().missRatio() /
                    set_assoc.stats().missRatio());

    std::printf("sub-blocks referenced per 1024-byte sector "
                "residency (16 sub-blocks per sector):\n");
    sector.stats().residencyTouched().dump(std::cout);
    std::printf("\nmean %.2f of 16 referenced; %.1f%% never "
                "referenced (paper: 72%%)\n",
                sector.stats().meanSubBlocksTouched(),
                100.0 * sector.stats().neverReferencedFraction());
    return 0;
}
