/**
 * @file
 * occsim-report: inspect and compare run manifests.
 *
 * Every occsim binary writes a JSON run manifest when OCCSIM_MANIFEST
 * names a path (see src/obs/manifest.hh). This CLI turns those files
 * back into something readable:
 *
 *   occsim-report <manifest.json>            summary: identity, sweeps,
 *                                            per-stage and per-engine
 *                                            breakdown tables
 *   occsim-report --diff <a.json> <b.json>   side-by-side stage/engine
 *                                            wall-time and throughput
 *                                            comparison (B vs A)
 *   occsim-report --check <manifest.json>    validate against the
 *                                            occsim.run_manifest/1
 *                                            schema; non-zero exit on
 *                                            any violation (this is
 *                                            the ctest validation of
 *                                            manifest emission)
 *   occsim-report bench [--check] [paths]    summarize BENCH_*.json
 *                                            benchmark records (a
 *                                            directory argument is
 *                                            scanned for them; the
 *                                            default is the current
 *                                            directory). --check exits
 *                                            non-zero when any record
 *                                            says bit_identical:false
 *                                            or gate_pass:false
 */

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "util/str.hh"
#include "util/table.hh"

using namespace occsim;
using obs::JsonValue;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: occsim-report <manifest.json>\n"
                 "       occsim-report --diff <a.json> <b.json>\n"
                 "       occsim-report --check <manifest.json>\n"
                 "       occsim-report bench [--check] "
                 "[<dir-or-BENCH_*.json>...]\n");
    std::exit(1);
}

bool
loadManifest(const std::string &path, JsonValue &out)
{
    bool ok = false;
    const std::string content = obs::readTextFile(path, &ok);
    if (!ok) {
        std::fprintf(stderr, "occsim-report: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::string error;
    if (!parseJson(content, out, &error)) {
        std::fprintf(stderr, "occsim-report: %s: invalid JSON (%s)\n",
                     path.c_str(), error.c_str());
        return false;
    }
    return true;
}

/** One schema violation report, or empty when fine. */
void
expectMember(const JsonValue &object, const char *name,
             JsonValue::Kind kind, std::vector<std::string> &errors)
{
    const JsonValue *member = object.find(name);
    if (member == nullptr) {
        errors.push_back(strfmt("missing key \"%s\"", name));
        return;
    }
    if (member->kind != kind)
        errors.push_back(strfmt("key \"%s\" has the wrong type", name));
}

double
numberAt(const JsonValue &object, const char *name)
{
    const JsonValue *member = object.find(name);
    return member != nullptr && member->isNumber() ? member->number
                                                   : 0.0;
}

std::string
stringAt(const JsonValue &object, const char *name)
{
    const JsonValue *member = object.find(name);
    return member != nullptr && member->isString() ? member->text
                                                   : std::string();
}

/**
 * Validate the occsim.run_manifest/1 shape: identity block, traces,
 * sweeps with per-config routes, stages, engines, counters.
 */
std::vector<std::string>
validateManifest(const JsonValue &doc)
{
    std::vector<std::string> errors;
    if (!doc.isObject()) {
        errors.push_back("document is not a JSON object");
        return errors;
    }
    expectMember(doc, "schema", JsonValue::Kind::String, errors);
    if (const JsonValue *schema = doc.find("schema")) {
        if (schema->isString() &&
            schema->text != "occsim.run_manifest/1") {
            errors.push_back(
                strfmt("unknown schema \"%s\"", schema->text.c_str()));
        }
    }
    expectMember(doc, "binary", JsonValue::Kind::String, errors);
    expectMember(doc, "git", JsonValue::Kind::String, errors);
    expectMember(doc, "build", JsonValue::Kind::Object, errors);
    if (const JsonValue *build = doc.find("build")) {
        if (build->isObject()) {
            expectMember(*build, "type", JsonValue::Kind::String,
                         errors);
            expectMember(*build, "flags", JsonValue::Kind::String,
                         errors);
        }
    }
    expectMember(doc, "threads", JsonValue::Kind::Number, errors);
    expectMember(doc, "traces", JsonValue::Kind::Array, errors);
    if (const JsonValue *traces = doc.find("traces")) {
        for (const JsonValue &trace : traces->items) {
            expectMember(trace, "name", JsonValue::Kind::String,
                         errors);
            expectMember(trace, "refs", JsonValue::Kind::Number,
                         errors);
        }
    }
    expectMember(doc, "sweeps", JsonValue::Kind::Array, errors);
    if (const JsonValue *sweeps = doc.find("sweeps")) {
        for (const JsonValue &sweep : sweeps->items) {
            expectMember(sweep, "label", JsonValue::Kind::String,
                         errors);
            expectMember(sweep, "engine_mode", JsonValue::Kind::String,
                         errors);
            expectMember(sweep, "threads", JsonValue::Kind::Number,
                         errors);
            expectMember(sweep, "refs_simulated",
                         JsonValue::Kind::Number, errors);
            expectMember(sweep, "wall_ms", JsonValue::Kind::Number,
                         errors);
            expectMember(sweep, "sharded_runs",
                         JsonValue::Kind::Number, errors);
            expectMember(sweep, "shard_max_refs",
                         JsonValue::Kind::Number, errors);
            expectMember(sweep, "shard_min_refs",
                         JsonValue::Kind::Number, errors);
            expectMember(sweep, "fused_runs",
                         JsonValue::Kind::Number, errors);
            expectMember(sweep, "fused_configs",
                         JsonValue::Kind::Number, errors);
            // Sampled sweeps must carry their sampling parameters
            // and coverage: an estimate whose unit size, interval,
            // and measured-reference count are unrecorded cannot be
            // audited.
            const JsonValue *mode = sweep.find("engine_mode");
            const bool sampled_mode = mode != nullptr &&
                                      mode->isString() &&
                                      mode->text == "sampled";
            if (sampled_mode) {
                expectMember(sweep, "sampled_runs",
                             JsonValue::Kind::Number, errors);
                expectMember(sweep, "sample_unit_refs",
                             JsonValue::Kind::Number, errors);
                expectMember(sweep, "sample_interval_units",
                             JsonValue::Kind::Number, errors);
                expectMember(sweep, "sample_warmup_refs",
                             JsonValue::Kind::Number, errors);
                expectMember(sweep, "sample_units",
                             JsonValue::Kind::Number, errors);
                expectMember(sweep, "sample_measured_refs",
                             JsonValue::Kind::Number, errors);
                if (numberAt(sweep, "sample_units") < 1.0) {
                    errors.push_back(
                        "sampled sweep measured no units");
                }
                if (numberAt(sweep, "sample_measured_refs") < 1.0) {
                    errors.push_back(
                        "sampled sweep measured no references");
                }
            }
            expectMember(sweep, "configs", JsonValue::Kind::Array,
                         errors);
            if (const JsonValue *configs = sweep.find("configs")) {
                for (const JsonValue &route : configs->items) {
                    expectMember(route, "name",
                                 JsonValue::Kind::String, errors);
                    expectMember(route, "engine",
                                 JsonValue::Kind::String, errors);
                    // A sampled route's estimate must travel with
                    // its standard error (and vice versa).
                    const bool has_mean =
                        route.find("miss_ratio") != nullptr;
                    const bool has_se =
                        route.find("miss_stderr") != nullptr;
                    if (has_mean != has_se) {
                        errors.push_back(strfmt(
                            "config \"%s\" has a sampled estimate "
                            "without its stderr (or the reverse)",
                            stringAt(route, "name").c_str()));
                    }
                    if (has_mean) {
                        expectMember(route, "miss_ratio",
                                     JsonValue::Kind::Number, errors);
                        expectMember(route, "miss_stderr",
                                     JsonValue::Kind::Number, errors);
                    }
                }
            }
        }
    }
    // "serves" is optional (only server runs emit it), but when
    // present every record must be auditable: what was asked, how
    // many cells, and how the cache split them.
    if (const JsonValue *serves = doc.find("serves")) {
        if (!serves->isArray()) {
            errors.push_back("key \"serves\" has the wrong type");
        } else {
            for (const JsonValue &serve : serves->items) {
                expectMember(serve, "label", JsonValue::Kind::String,
                             errors);
                expectMember(serve, "op", JsonValue::Kind::String,
                             errors);
                expectMember(serve, "traces", JsonValue::Kind::Number,
                             errors);
                expectMember(serve, "configs", JsonValue::Kind::Number,
                             errors);
                expectMember(serve, "cells", JsonValue::Kind::Number,
                             errors);
                expectMember(serve, "cache_hits",
                             JsonValue::Kind::Number, errors);
                expectMember(serve, "cache_misses",
                             JsonValue::Kind::Number, errors);
                expectMember(serve, "wall_ms", JsonValue::Kind::Number,
                             errors);
                if (numberAt(serve, "cache_hits") +
                        numberAt(serve, "cache_misses") !=
                    numberAt(serve, "cells")) {
                    errors.push_back(strfmt(
                        "serve \"%s\": cache_hits + cache_misses != "
                        "cells",
                        stringAt(serve, "label").c_str()));
                }
            }
        }
    }
    expectMember(doc, "stages", JsonValue::Kind::Array, errors);
    if (const JsonValue *stages = doc.find("stages")) {
        for (const JsonValue &stage : stages->items) {
            expectMember(stage, "name", JsonValue::Kind::String,
                         errors);
            expectMember(stage, "calls", JsonValue::Kind::Number,
                         errors);
            expectMember(stage, "wall_ms", JsonValue::Kind::Number,
                         errors);
        }
    }
    expectMember(doc, "engines", JsonValue::Kind::Array, errors);
    expectMember(doc, "counters", JsonValue::Kind::Object, errors);
    return errors;
}

void
printSummary(const std::string &path, const JsonValue &doc)
{
    std::printf("manifest: %s\n", path.c_str());
    std::printf("binary:   %s\n", stringAt(doc, "binary").c_str());
    std::printf("git:      %s\n", stringAt(doc, "git").c_str());
    if (const JsonValue *build = doc.find("build")) {
        std::printf("build:    %s (%s)\n",
                    stringAt(*build, "type").c_str(),
                    stringAt(*build, "flags").c_str());
    }
    std::printf("threads:  %.0f\n\n", numberAt(doc, "threads"));

    if (const JsonValue *traces = doc.find("traces");
        traces != nullptr && !traces->items.empty()) {
        TableWriter table({"trace", "refs"});
        for (const JsonValue &trace : traces->items) {
            table.addRow({stringAt(trace, "name"),
                          strfmt("%.0f", numberAt(trace, "refs"))});
        }
        std::printf("traces:\n");
        table.print(std::cout);
        std::printf("\n");
    }

    if (const JsonValue *sweeps = doc.find("sweeps");
        sweeps != nullptr && !sweeps->items.empty()) {
        TableWriter table({"sweep", "mode", "traces", "configs",
                           "refs simulated", "wall ms", "sharded",
                           "shard skew", "fused cfgs"});
        for (const JsonValue &sweep : sweeps->items) {
            const JsonValue *configs = sweep.find("configs");
            // Shard imbalance: fullest / emptiest shard sub-trace
            // across the sweep's sharded runs. A large ratio means
            // hot sets made one worker drag the merge barrier.
            const double sharded = numberAt(sweep, "sharded_runs");
            const double min_refs =
                numberAt(sweep, "shard_min_refs");
            const double max_refs =
                numberAt(sweep, "shard_max_refs");
            std::string skew = "-";
            if (sharded > 0.0 && min_refs > 0.0)
                skew = strfmt("%.2fx", max_refs / min_refs);
            else if (sharded > 0.0)
                skew = "inf";
            table.addRow(
                {stringAt(sweep, "label"),
                 stringAt(sweep, "engine_mode"),
                 strfmt("%.0f", numberAt(sweep, "traces")),
                 strfmt("%zu", configs != nullptr
                                   ? configs->items.size()
                                   : std::size_t{0}),
                 strfmt("%.0f", numberAt(sweep, "refs_simulated")),
                 strfmt("%.2f", numberAt(sweep, "wall_ms")),
                 sharded > 0.0 ? strfmt("%.0f", sharded) : "-",
                 skew,
                 numberAt(sweep, "fused_runs") > 0.0
                     ? strfmt("%.0f", numberAt(sweep, "fused_configs"))
                     : "-"});
        }
        std::printf("sweeps:\n");
        table.print(std::cout);
        std::printf("\n");

        // Sampled sweeps additionally get their sampling parameters
        // and per-config estimate +-stderr columns. Exact sweeps
        // print nothing here, so existing output is unchanged.
        for (const JsonValue &sweep : sweeps->items) {
            if (numberAt(sweep, "sampled_runs") < 1.0)
                continue;
            std::printf(
                "sampling (%s): unit %.0f refs, interval %.0f "
                "units, warmup %.0f refs, %.0f units measured "
                "(%.0f refs)\n",
                stringAt(sweep, "label").c_str(),
                numberAt(sweep, "sample_unit_refs"),
                numberAt(sweep, "sample_interval_units"),
                numberAt(sweep, "sample_warmup_refs"),
                numberAt(sweep, "sample_units"),
                numberAt(sweep, "sample_measured_refs"));
            const JsonValue *configs = sweep.find("configs");
            if (configs == nullptr)
                continue;
            TableWriter est({"config", "miss ratio", "+-stderr",
                             "95% CI"});
            for (const JsonValue &route : configs->items) {
                if (route.find("miss_ratio") == nullptr)
                    continue;
                const double mean = numberAt(route, "miss_ratio");
                const double se = numberAt(route, "miss_stderr");
                est.addRow(
                    {stringAt(route, "name"),
                     strfmt("%.6f", mean), strfmt("%.6f", se),
                     strfmt("[%.6f, %.6f]", mean - 1.96 * se,
                            mean + 1.96 * se)});
            }
            est.print(std::cout);
            std::printf("\n");
        }
    }

    if (const JsonValue *serves = doc.find("serves");
        serves != nullptr && !serves->items.empty()) {
        TableWriter table({"request", "op", "traces", "configs",
                           "cells", "hits", "misses", "prio",
                           "wall ms"});
        for (const JsonValue &serve : serves->items) {
            table.addRow(
                {stringAt(serve, "label"), stringAt(serve, "op"),
                 strfmt("%.0f", numberAt(serve, "traces")),
                 strfmt("%.0f", numberAt(serve, "configs")),
                 strfmt("%.0f", numberAt(serve, "cells")),
                 strfmt("%.0f", numberAt(serve, "cache_hits")),
                 strfmt("%.0f", numberAt(serve, "cache_misses")),
                 strfmt("%.0f", numberAt(serve, "priority")),
                 strfmt("%.2f", numberAt(serve, "wall_ms"))});
        }
        std::printf("served requests:\n");
        table.print(std::cout);
        std::printf("\n");
    }

    if (const JsonValue *engines = doc.find("engines");
        engines != nullptr && !engines->items.empty()) {
        TableWriter table(
            {"engine", "refs", "wall ms", "Mrefs/s"});
        for (const JsonValue &engine : engines->items) {
            table.addRow(
                {stringAt(engine, "name"),
                 strfmt("%.0f", numberAt(engine, "refs")),
                 strfmt("%.2f", numberAt(engine, "wall_ms")),
                 strfmt("%.2f", numberAt(engine, "mrefs_per_sec"))});
        }
        std::printf("engine breakdown (wall time summed across "
                    "threads):\n");
        table.print(std::cout);
        std::printf("\n");
    }

    if (const JsonValue *stages = doc.find("stages");
        stages != nullptr && !stages->items.empty()) {
        TableWriter table({"stage", "calls", "wall ms"});
        for (const JsonValue &stage : stages->items) {
            table.addRow({stringAt(stage, "name"),
                          strfmt("%.0f", numberAt(stage, "calls")),
                          strfmt("%.2f", numberAt(stage, "wall_ms"))});
        }
        std::printf("stage breakdown:\n");
        table.print(std::cout);
    }
}

/** name -> (calls-or-refs, wall_ms, mrefs) for diffing. */
struct NamedRow
{
    std::string name;
    double a = 0.0, b = 0.0;
    bool inA = false, inB = false;
};

std::vector<NamedRow>
mergeRows(const JsonValue &a, const JsonValue &b, const char *array,
          const char *field)
{
    std::vector<NamedRow> rows;
    const auto scan = [&](const JsonValue &doc, bool is_a) {
        const JsonValue *items = doc.find(array);
        if (items == nullptr)
            return;
        for (const JsonValue &item : items->items) {
            const std::string name = stringAt(item, "name");
            NamedRow *row = nullptr;
            for (NamedRow &existing : rows) {
                if (existing.name == name) {
                    row = &existing;
                    break;
                }
            }
            if (row == nullptr) {
                rows.push_back(NamedRow{name, 0, 0, false, false});
                row = &rows.back();
            }
            const double value = numberAt(item, field);
            if (is_a) {
                row->a = value;
                row->inA = true;
            } else {
                row->b = value;
                row->inB = true;
            }
        }
    };
    scan(a, true);
    scan(b, false);
    return rows;
}

void
printDiffTable(const JsonValue &a, const JsonValue &b,
               const char *array, const char *field, const char *title)
{
    const std::vector<NamedRow> rows = mergeRows(a, b, array, field);
    if (rows.empty())
        return;
    TableWriter table({"name", "A", "B", "B/A"});
    for (const NamedRow &row : rows) {
        std::string ratio = "-";
        if (row.inA && row.inB && row.a > 0.0)
            ratio = strfmt("%.3f", row.b / row.a);
        table.addRow({row.name,
                      row.inA ? strfmt("%.2f", row.a) : "-",
                      row.inB ? strfmt("%.2f", row.b) : "-", ratio});
    }
    std::printf("%s:\n", title);
    table.print(std::cout);
    std::printf("\n");
}

/** -1 when @p name is absent or not a boolean, else 0 or 1. */
int
boolAt(const JsonValue &object, const char *name)
{
    const JsonValue *member = object.find(name);
    if (member == nullptr || !member->isBool())
        return -1;
    return member->boolean ? 1 : 0;
}

/** Expand a directory argument into its BENCH_*.json files (sorted);
 *  anything that is not a directory passes through as-is. */
std::vector<std::string>
expandBenchArg(const std::string &arg)
{
    DIR *dir = ::opendir(arg.c_str());
    if (dir == nullptr)
        return {arg};
    std::vector<std::string> files;
    while (const struct dirent *ent = ::readdir(dir)) {
        const std::string file = ent->d_name;
        if (file.rfind("BENCH_", 0) == 0 && file.size() > 11 &&
            file.compare(file.size() - 5, 5, ".json") == 0)
            files.push_back(arg + "/" + file);
    }
    ::closedir(dir);
    std::sort(files.begin(), files.end());
    return files;
}

/** "BENCH_fused.json" (with any directory prefix) -> "fused". */
std::string
benchName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (name.rfind("BENCH_", 0) == 0)
        name = name.substr(6);
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0)
        name = name.substr(0, name.size() - 5);
    return name;
}

/**
 * The BENCH_*.json trajectory as one table. The records are
 * heterogeneous — not every bench records a speedup, each names its
 * own reference count, and the correctness/gate trailer
 * is only present where bench_reporter emitted it — so absent fields
 * print "-" rather than failing. With @p check, any record that
 * recorded bit_identical:false or gate_pass:false fails the run.
 */
int
benchReport(const std::vector<std::string> &args, bool check)
{
    std::vector<std::string> paths;
    for (const std::string &arg : args) {
        for (std::string &path : expandBenchArg(arg))
            paths.push_back(std::move(path));
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "occsim-report: no BENCH_*.json files found\n");
        return 1;
    }

    TableWriter table({"bench", "refs", "hw threads", "speedup",
                       "bit identical", "gate"});
    std::vector<std::string> failures;
    bool load_failed = false;
    for (const std::string &path : paths) {
        JsonValue doc;
        if (!loadManifest(path, doc)) {
            load_failed = true;
            continue;
        }
        const std::string name = benchName(path);

        double refs = numberAt(doc, "refs");
        if (refs == 0.0)
            refs = numberAt(doc, "refs_per_trace");
        const double hw_threads = numberAt(doc, "hw_threads");

        // The headline ratio, where the bench records one.
        std::string ratio = "-";
        if (doc.find("speedup") != nullptr)
            ratio = strfmt("%.2fx", numberAt(doc, "speedup"));

        const int identical = boolAt(doc, "bit_identical");
        const int enforced = boolAt(doc, "gate_enforced");
        const int pass = boolAt(doc, "gate_pass");
        std::string gate = "-";
        if (pass == 0)
            gate = "FAIL";
        else if (pass == 1)
            gate = enforced == 1 ? "pass" : "pass (not enforced)";

        table.addRow({name, refs > 0.0 ? strfmt("%.0f", refs) : "-",
                      hw_threads > 0.0 ? strfmt("%.0f", hw_threads)
                                       : "-",
                      ratio,
                      identical < 0 ? "-"
                                    : (identical ? "yes" : "NO"),
                      gate});
        if (identical == 0)
            failures.push_back(
                strfmt("%s: bit_identical is false", name.c_str()));
        if (pass == 0)
            failures.push_back(
                strfmt("%s: gate_pass is false", name.c_str()));
    }
    std::printf("benchmarks:\n");
    table.print(std::cout);

    if (check) {
        for (const std::string &failure : failures) {
            std::fprintf(stderr, "occsim-report: %s\n",
                         failure.c_str());
        }
        if (failures.empty() && !load_failed)
            std::printf("\nall benchmark records identical and "
                        "within gate\n");
        return failures.empty() && !load_failed ? 0 : 1;
    }
    return load_failed ? 1 : 0;
}

int
diffManifests(const std::string &path_a, const std::string &path_b)
{
    JsonValue a, b;
    if (!loadManifest(path_a, a) || !loadManifest(path_b, b))
        return 1;
    std::printf("A: %s (%s, git %s)\n", path_a.c_str(),
                stringAt(a, "binary").c_str(),
                stringAt(a, "git").c_str());
    std::printf("B: %s (%s, git %s)\n\n", path_b.c_str(),
                stringAt(b, "binary").c_str(),
                stringAt(b, "git").c_str());
    printDiffTable(a, b, "stages", "wall_ms",
                   "stage wall time (ms)");
    printDiffTable(a, b, "engines", "wall_ms",
                   "engine wall time (ms)");
    printDiffTable(a, b, "engines", "mrefs_per_sec",
                   "engine throughput (Mrefs/s)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string mode = argv[1];

    if (mode == "--check") {
        if (argc != 3)
            usage();
        JsonValue doc;
        if (!loadManifest(argv[2], doc))
            return 1;
        const std::vector<std::string> errors = validateManifest(doc);
        if (!errors.empty()) {
            for (const std::string &error : errors) {
                std::fprintf(stderr, "occsim-report: %s: %s\n",
                             argv[2], error.c_str());
            }
            return 1;
        }
        std::printf("%s: valid occsim.run_manifest/1\n", argv[2]);
        return 0;
    }

    if (mode == "--diff") {
        if (argc != 4)
            usage();
        return diffManifests(argv[2], argv[3]);
    }

    if (mode == "bench") {
        bool check = false;
        std::vector<std::string> args;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--check") == 0)
                check = true;
            else if (argv[i][0] == '-')
                usage();
            else
                args.emplace_back(argv[i]);
        }
        if (args.empty())
            args.emplace_back(".");
        return benchReport(args, check);
    }

    if (mode[0] == '-')
        usage();
    if (argc == 3 && argv[2][0] != '-')
        return diffManifests(argv[1], argv[2]);
    if (argc != 2)
        usage();

    JsonValue doc;
    if (!loadManifest(argv[1], doc))
        return 1;
    printSummary(argv[1], doc);
    return 0;
}
