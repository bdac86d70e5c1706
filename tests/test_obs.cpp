/**
 * @file
 * Unit tests for the observability layer (src/obs/): the Telemetry
 * registry (counters, stage spans, merge-across-threads, reset), the
 * StageTimer RAII span, the JSON writer/parser pair (round-trip,
 * escaping, malformed-input rejection), and RunManifest
 * serialization and record retention.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/telemetry.hh"

using namespace occsim;
using obs::JsonValue;

TEST(Telemetry, CountersAccumulateAndSort)
{
    obs::Telemetry telem;
    telem.counterAdd("zeta", 1);
    telem.counterAdd("alpha", 2);
    telem.counterAdd("zeta", 3);

    const auto counters = telem.counters();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0].name, "alpha");
    EXPECT_EQ(counters[0].value, 2u);
    EXPECT_EQ(counters[1].name, "zeta");
    EXPECT_EQ(counters[1].value, 4u);
}

TEST(Telemetry, StagesCountCallsAndAccumulateTime)
{
    obs::Telemetry telem;
    telem.stageAdd("build", 1'000'000);  // 1 ms
    telem.stageAdd("build", 500'000);
    telem.stageAdd("run", 2'000'000);

    const auto stages = telem.stages();
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].name, "build");
    EXPECT_EQ(stages[0].calls, 2u);
    EXPECT_DOUBLE_EQ(stages[0].wallMs, 1.5);
    EXPECT_EQ(stages[1].name, "run");
    EXPECT_EQ(stages[1].calls, 1u);
}

TEST(Telemetry, MergesAcrossThreads)
{
    obs::Telemetry telem;
    constexpr int kThreads = 8;
    constexpr int kAdds = 1000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        workers.emplace_back([&telem] {
            for (int add = 0; add < kAdds; ++add) {
                telem.counterAdd("shared", 1);
                telem.stageAdd("span", 10);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    const auto counters = telem.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].value,
              static_cast<std::uint64_t>(kThreads) * kAdds);
    const auto stages = telem.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].calls,
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Telemetry, ResetZeroesEverything)
{
    obs::Telemetry telem;
    telem.counterAdd("c", 7);
    telem.stageAdd("s", 7);
    telem.reset();
    EXPECT_TRUE(telem.counters().empty());
    EXPECT_TRUE(telem.stages().empty());
}

TEST(Telemetry, StageTimerRecordsIntoExplicitSink)
{
    obs::Telemetry telem;
    {
        obs::StageTimer timer("scoped", &telem);
    }
    const auto stages = telem.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].name, "scoped");
    EXPECT_EQ(stages[0].calls, 1u);
    EXPECT_GE(stages[0].wallMs, 0.0);
}

TEST(Telemetry, StageTimerStopIsIdempotent)
{
    obs::Telemetry telem;
    obs::StageTimer timer("once", &telem);
    timer.stop();
    timer.stop();  // second stop and destructor must both be no-ops
    const auto stages = telem.stages();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].calls, 1u);
}

TEST(Telemetry, GlobalRegistryDisabledMeansNoRecording)
{
    // The global registry starts disabled; a StageTimer against it
    // must not arm, and counterAdd must not record.
    const bool was_enabled = obs::telemetryEnabled();
    obs::setTelemetryEnabled(false);
    obs::telemetry().reset();
    {
        obs::StageTimer timer("ghost");
        obs::counterAdd("ghost.count", 1);
    }
    EXPECT_TRUE(obs::telemetry().stages().empty());
    EXPECT_TRUE(obs::telemetry().counters().empty());
    obs::setTelemetryEnabled(was_enabled);
}

TEST(Json, WriterProducesExpectedDocument)
{
    obs::JsonWriter json;
    json.beginObject()
        .kv("name", "occsim")
        .kv("count", std::uint64_t{42})
        .kv("ok", true)
        .key("list")
        .beginArray()
        .value(1)
        .value(2.5)
        .null()
        .endArray()
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"occsim\",\"count\":42,\"ok\":true,"
              "\"list\":[1,2.5,null]}");
}

TEST(Json, EscapingRoundTrips)
{
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    obs::JsonWriter json;
    json.beginObject().kv("s", nasty).endObject();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json.str(), doc, &error)) << error;
    const JsonValue *s = doc.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, nasty);
}

TEST(Json, NumbersRoundTripExactly)
{
    for (const double value :
         {0.0, -1.5, 3.14159265358979, 1e-9, 1.7e308, 20000.0}) {
        obs::JsonWriter json;
        json.beginObject().kv("x", value).endObject();
        JsonValue doc;
        ASSERT_TRUE(parseJson(json.str(), doc));
        const JsonValue *x = doc.find("x");
        ASSERT_NE(x, nullptr);
        EXPECT_EQ(x->number, value) << json.str();
    }
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a":[1,{"b":"two","c":[true,false,null]}],"d":-2e3})", doc,
        &error))
        << error;
    const JsonValue *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 2u);
    EXPECT_EQ(a->items[0].asU64(), 1u);
    const JsonValue *c = a->items[1].find("c");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->items.size(), 3u);
    EXPECT_TRUE(c->items[0].boolean);
    EXPECT_TRUE(c->items[2].isNull());
    const JsonValue *d = doc.find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->number, -2000.0);
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue doc;
    std::string error;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "{\"a\":1} x", "\"unterminated", "{\"a\":01e}"}) {
        EXPECT_FALSE(parseJson(bad, doc, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson("{\"s\":\"A\\u00e9\\u20ac\"}", doc));
    const JsonValue *s = doc.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, "A\xc3\xa9\xe2\x82\xac");
}

TEST(Manifest, CurrentManifestSerializesToSchemaJson)
{
    obs::setManifestBinary("test_obs");
    const obs::RunManifest manifest = obs::currentManifest();
    EXPECT_EQ(manifest.schema, "occsim.run_manifest/1");
    EXPECT_EQ(manifest.binary, "test_obs");
    EXPECT_GE(manifest.threads, 1u);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(manifest.toJson(), doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());
    for (const char *key : {"schema", "binary", "git", "build",
                            "threads", "traces", "sweeps", "stages",
                            "engines", "counters"}) {
        EXPECT_NE(doc.find(key), nullptr) << key;
    }
    const JsonValue *build = doc.find("build");
    ASSERT_NE(build, nullptr);
    EXPECT_NE(build->find("type"), nullptr);
    EXPECT_NE(build->find("flags"), nullptr);
}

TEST(Manifest, EngineUsageDerivedFromTelemetry)
{
    const bool was_enabled = obs::telemetryEnabled();
    obs::setTelemetryEnabled(true);
    obs::telemetry().counterAdd("engine.batch.refs", 1000);
    obs::telemetry().counterAdd("engine.batch.bytes", 8000);
    obs::telemetry().stageAdd("engine.batch", 2'000'000);  // 2 ms

    const obs::RunManifest manifest = obs::currentManifest();
    const obs::EngineUsage *batch = nullptr;
    for (const obs::EngineUsage &engine : manifest.engines) {
        if (engine.name == "batch")
            batch = &engine;
    }
    ASSERT_NE(batch, nullptr);
    EXPECT_GE(batch->refs, 1000u);
    EXPECT_GE(batch->bytes, 8000u);
    EXPECT_GT(batch->wallMs, 0.0);
    EXPECT_GT(batch->mrefsPerSec, 0.0);

    obs::setTelemetryEnabled(was_enabled);
}

TEST(Manifest, WriteManifestProducesReadableFile)
{
    const std::string path = "test_obs_manifest.json";
    ASSERT_TRUE(obs::writeManifest(path));
    bool ok = false;
    const std::string content = obs::readTextFile(path, &ok);
    ASSERT_TRUE(ok);
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(content, doc, &error)) << error;
    std::remove(path.c_str());
}

TEST(Manifest, RetentionKeepsTheNewestRecordsAndCountsTheDropped)
{
    const auto dropped = [](const obs::RunManifest &manifest,
                            const std::string &name) {
        for (const obs::CounterSnapshot &counter : manifest.counters) {
            if (counter.name == name)
                return counter.value;
        }
        return std::uint64_t{0};
    };
    const obs::RunManifest before = obs::currentManifest();

    // Ten records past the cap: the first ten of ours, and everything
    // recorded before them, make way for the newest.
    const std::size_t total = obs::kMaxRecordedSweeps + 10;
    for (std::size_t i = 0; i < total; ++i) {
        obs::SweepRecord sweep;
        sweep.label = "retain-" + std::to_string(i);
        obs::recordSweep(sweep);
        obs::ServeRecord serve;
        serve.label = "retain-" + std::to_string(i);
        obs::recordServe(serve);
    }

    const obs::RunManifest after = obs::currentManifest();
    ASSERT_EQ(after.sweeps.size(), obs::kMaxRecordedSweeps);
    ASSERT_EQ(after.serves.size(), obs::kMaxRecordedSweeps);
    EXPECT_EQ(after.sweeps.front().label, "retain-10");
    EXPECT_EQ(after.serves.front().label, "retain-10");
    const std::string newest = "retain-" + std::to_string(total - 1);
    EXPECT_EQ(after.sweeps.back().label, newest);
    EXPECT_EQ(after.serves.back().label, newest);
    EXPECT_EQ(dropped(after, "sweeps_dropped"),
              dropped(before, "sweeps_dropped") + before.sweeps.size() +
                  10);
    EXPECT_EQ(dropped(after, "serves_dropped"),
              dropped(before, "serves_dropped") + before.serves.size() +
                  10);
}
