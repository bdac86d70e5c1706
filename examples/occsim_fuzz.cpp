/**
 * @file
 * occsim-fuzz: the differential property-fuzz driver. Generates
 * seeded random (cache config, adversarial trace) pairs and runs
 * every engine occsim owns over each — the naive ReferenceCache
 * oracle, the direct Cache, the parallel routing layer under both
 * DirectOnly and Auto, and the standalone batched, set-sharded and
 * fused engines — diffing every counter and derived metric exactly.
 * On a mismatch the case is auto-shrunk (trace bisection + config
 * simplification) and printed as a replayable case seed plus a
 * paste-ready standalone test body.
 *
 * Usage:
 *   occsim-fuzz [options]
 *     --cases N      cases to run                  (default 500)
 *     --seed N       master seed                   (default fixed)
 *     --refs N       references per trace          (default 768)
 *     --case-seed N  replay one case by seed and exit
 *     --verbose      print every generated case
 *     --self-test    also verify the harness catches an injected
 *                    off-by-one (perturbed oracle must mismatch and
 *                    shrink to a tiny repro)
 *     --sample-coverage
 *                    run the statistical-sampling CI-coverage check
 *                    instead of the exact differential loop: each
 *                    case diffs the sampling engine's 95% interval
 *                    against the exact miss ratio, and the run
 *                    passes when >= 90% of cases are covered
 *                    (check/sample_check.hh). --cases/--seed/--refs
 *                    override the coverage defaults when given.
 *     --mesi         run the multicore coherency differential loop
 *                    instead of the single-cache one: each case runs
 *                    a random MESI-subset scenario (2..4 cores,
 *                    symmetric or per-core shapes) over a parallel
 *                    workload or a core-stamped adversarial trace,
 *                    through both the coherent engine and the naive
 *                    flat-snooping oracle, diffing every per-core
 *                    counter and every bus counter
 *                    (check/coherence_check.hh). --cases/--seed/
 *                    --refs override the defaults when given.
 *     --serve-proto  run the sweep-server protocol-robustness check
 *                    instead of the differential loop: seeded
 *                    adversarial connections (garbage, truncated
 *                    frames, oversized lengths, malformed JSON,
 *                    abrupt disconnects) against a live in-process
 *                    server, which must reject each cleanly, never
 *                    crash, and never leak a connection slot
 *                    (check/serve_check.hh). --cases/--seed override
 *                    the defaults when given.
 *
 * Exit status: 0 on a clean run, 1 on any mismatch or a failed
 * self-test.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "check/coherence_check.hh"
#include "check/fuzz.hh"
#include "check/sample_check.hh"
#include "check/serve_check.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace occsim;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: occsim-fuzz [--cases N] [--seed N] [--refs N]\n"
                 "                   [--case-seed N] [--verbose] "
                 "[--self-test]\n"
                 "                   [--sample-coverage] "
                 "[--serve-proto] [--mesi]\n");
    std::exit(1);
}

std::uint64_t
numArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage();
    std::uint64_t value = 0;
    if (!parseU64(argv[++i], value))
        fatal("bad numeric argument '%s'", argv[i]);
    return value;
}

/**
 * Prove the harness has teeth: perturb the oracle's miss count by
 * one and require the mismatch to be caught and shrunk small.
 * @return true when the injected fault was detected.
 */
bool
selfTest(const FuzzOptions &base)
{
    FuzzOptions options = base;
    options.cases = 1;
    options.diff.perturbReference = [](ReferenceStats &stats) {
        if (stats.misses > 0)
            --stats.misses;
        else
            ++stats.misses;
    };
    const FuzzSummary summary = runFuzz(options);
    if (summary.passed()) {
        std::cout << "self-test FAILED: injected off-by-one was not "
                     "detected\n";
        return false;
    }
    std::cout << "self-test ok: injected off-by-one caught and "
                 "shrunk to "
              << summary.shrunk.refs.size() << " refs\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions options;
    options.out = &std::cout;
    bool self_test = false;
    bool replay = false;
    bool sample_coverage = false;
    bool serve_proto = false;
    bool mesi = false;
    std::uint64_t case_seed = 0;
    bool cases_set = false, seed_set = false, refs_set = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cases") == 0) {
            options.cases = numArg(argc, argv, i);
            cases_set = true;
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            options.seed = numArg(argc, argv, i);
            seed_set = true;
        } else if (std::strcmp(argv[i], "--refs") == 0) {
            options.refsPerCase =
                static_cast<std::size_t>(numArg(argc, argv, i));
            refs_set = true;
        } else if (std::strcmp(argv[i], "--case-seed") == 0) {
            replay = true;
            case_seed = numArg(argc, argv, i);
        } else if (std::strcmp(argv[i], "--verbose") == 0)
            options.verbose = true;
        else if (std::strcmp(argv[i], "--self-test") == 0)
            self_test = true;
        else if (std::strcmp(argv[i], "--sample-coverage") == 0)
            sample_coverage = true;
        else if (std::strcmp(argv[i], "--serve-proto") == 0)
            serve_proto = true;
        else if (std::strcmp(argv[i], "--mesi") == 0)
            mesi = true;
        else
            usage();
    }

    if (mesi) {
        CoherenceFuzzOptions coherence;
        coherence.out = &std::cout;
        coherence.verbose = options.verbose;
        if (cases_set)
            coherence.cases = options.cases;
        if (seed_set)
            coherence.seed = options.seed;
        if (refs_set)
            coherence.refsPerCase = options.refsPerCase;
        const CoherenceFuzzSummary summary =
            runCoherenceFuzz(coherence);
        if (summary.passed()) {
            std::cout << "coherence fuzz: "
                      << summary.casesRun
                      << " cases, engine and oracle agree\n";
        }
        return summary.passed() ? 0 : 1;
    }

    if (serve_proto) {
        ServeCheckOptions check;
        check.out = &std::cout;
        check.verbose = options.verbose;
        if (cases_set)
            check.cases = options.cases;
        if (seed_set)
            check.seed = options.seed;
        const ServeCheckSummary summary = runServeCheck(check);
        return summary.passed() ? 0 : 1;
    }

    if (sample_coverage) {
        SampleCoverageOptions coverage;
        coverage.out = &std::cout;
        coverage.verbose = options.verbose;
        if (cases_set)
            coverage.cases = options.cases;
        if (seed_set)
            coverage.seed = options.seed;
        if (refs_set)
            coverage.refs = options.refsPerCase;
        const SampleCoverageSummary summary =
            runSampleCoverage(coverage);
        return summary.passed() ? 0 : 1;
    }

    if (replay) {
        const FuzzSummary summary = replayFuzzCase(case_seed, options);
        return summary.passed() ? 0 : 1;
    }

    const FuzzSummary summary = runFuzz(options);
    bool ok = summary.passed();
    if (ok && self_test)
        ok = selfTest(options);
    return ok ? 0 : 1;
}
