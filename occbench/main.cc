/**
 * @file
 * occbench: one run of one workload.
 *
 *   occbench --workload <paper_grid|long_trace|serve_mix|mesi_4core>
 *            --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints human-readable lines (threads, routes, result digest, every
 * metric with its unit and sample count), then, as the last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set from a traced pass. See README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/telemetry.hh"
#include "workloads.hh"

using namespace occbench;

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},       {"cfgref_ns", "ns"},  {"lat_ms_p50", "ms"},
    {"lat_ms_tail", "ms"},  {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "occbench: %s\nusage: occbench --workload "
                 "<paper_grid|long_trace|serve_mix|mesi_4core> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &value)
{
    char *end = nullptr;
    value = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::uint64_t trace = 0;
    std::uint64_t seconds = 10;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            ok = parseUnsigned(value, options.seed);
        else if (flag == "--seconds")
            ok = parseUnsigned(value, seconds) && seconds > 0;
        else if (flag == "--trace")
            ok = parseUnsigned(value, trace) && trace <= 1;
        else
            return usage(("unknown flag " + flag).c_str());
        if (!ok)
            return usage(("bad value for " + flag).c_str());
    }
    if (argc % 2 != 1)
        return usage("flags take one value each");
    options.seconds = static_cast<double>(seconds);
    options.traced = trace == 1;

    // Telemetry stays off except around the traced pass's operations.
    occsim::obs::setTelemetryEnabled(false);

    Outcome out;
    if (options.workload == "paper_grid")
        out = runPaperGrid(options);
    else if (options.workload == "long_trace")
        out = runLongTrace(options);
    else if (options.workload == "serve_mix")
        out = runServeMix(options);
    else if (options.workload == "mesi_4core")
        out = runMesi4Core(options);
    else
        return usage(("unknown workload '" + options.workload + "'").c_str());

    // Report exactly the named set, in its documented order; a layer
    // idle on this workload reads 0.
    const auto &names = options.traced ? kLayerMetrics : kEndToEnd;
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : names) {
        Metric metric{name, 0.0, unit, 0};
        for (const Metric &m : out.metrics) {
            if (m.name == name)
                metric = m;
        }
        metrics.push_back(metric);
    }

    const bool correct = out.failed == 0 && out.attempted > 0;
    for (const Metric &m : metrics) {
        std::printf("metric %-34s %.6g %s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    }
    std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
                out.attempted > 0 ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
