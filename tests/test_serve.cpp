/**
 * @file
 * The sweep-server contract (serve/server.hh): repeated identical
 * requests must be byte-identical on the wire with the repeat served
 * from the result cache (visible in stats, telemetry and the
 * manifest); any identity-field difference must miss; served results
 * must be bit-identical to a direct runSweep of the same cells; N
 * concurrent clients must each see exactly their own bit-identical
 * stream; and the socket layer must stream the same frames end to
 * end.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/cache_geometry.hh"
#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workload/suites.hh"

#include "corpus_clock.hh"

using namespace occsim;
using namespace occsim::serve;

namespace {

constexpr std::uint64_t kRefs = 30000;

/** One collected response stream. */
struct Responses
{
    std::vector<std::string> frames;

    bool collect(const std::string &payload)
    {
        frames.push_back(payload);
        return true;
    }

    /** Payloads of "result" frames, in emission order. */
    std::vector<std::string> results() const
    {
        std::vector<std::string> out;
        for (const std::string &frame : frames) {
            if (frame.find("\"type\":\"result\"") == 0 ||
                frame.find("{\"type\":\"result\"") == 0)
                out.push_back(frame);
        }
        return out;
    }

    /** The terminal frame ("done" or "error"). */
    const std::string &terminal() const { return frames.back(); }
};

/** The serialized SweepResult portion of a result frame — the bytes
 *  whose identity the cache must preserve (the frame also carries the
 *  per-emission "cached" flag, which legitimately differs). */
std::string
resultBytes(const std::string &frame)
{
    const std::size_t pos = frame.find("\"result\":");
    EXPECT_NE(pos, std::string::npos) << frame;
    return frame.substr(pos);
}

bool
frameCached(const std::string &frame)
{
    return frame.find("\"cached\":true") != std::string::npos;
}

/** Parse the SweepResult object out of a result frame. */
SweepResult
parseFrameResult(const std::string &frame)
{
    obs::JsonValue value;
    std::string error;
    EXPECT_TRUE(obs::parseJson(frame, value, &error)) << error;
    const obs::JsonValue *result = value.find("result");
    EXPECT_NE(result, nullptr);
    SweepResult out;
    EXPECT_TRUE(parseResultJson(*result, out, &error)) << error;
    return out;
}

void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.grossBytes, b.grossBytes);
    EXPECT_EQ(a.missRatio, b.missRatio);
    EXPECT_EQ(a.warmMissRatio, b.warmMissRatio);
    EXPECT_EQ(a.trafficRatio, b.trafficRatio);
    EXPECT_EQ(a.warmTrafficRatio, b.warmTrafficRatio);
    EXPECT_EQ(a.nibbleTrafficRatio, b.nibbleTrafficRatio);
    EXPECT_EQ(a.warmNibbleTrafficRatio, b.warmNibbleTrafficRatio);
}

std::uint64_t
counterValue(obs::Telemetry &telemetry, const std::string &name)
{
    for (const obs::CounterSnapshot &counter : telemetry.counters()) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

/** A live server over a fresh throwaway corpus with the first two
 *  PDP-11 suite traces ingested. */
class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char pattern[] = "/tmp/occsim_serve_XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        dir_ = pattern;

        ServeOptions options;
        options.corpusDir = dir_;
        options.dispatchers = 2;
        options.streamTile = 4;  // small tiles: exercise scheduling
        options.telemetry = &telemetry_;
        server_ = std::make_unique<SweepServer>(options);

        const Suite suite = pdp11Suite();
        trace0_ = buildTraceShared(suite.traces[0], kRefs);
        trace1_ = buildTraceShared(suite.traces[1], kRefs);
        hash0_ = server_->corpus().ingest(*trace0_);
        hash1_ = server_->corpus().ingest(*trace1_);
        ASSERT_FALSE(hash0_.empty());
        ASSERT_FALSE(hash1_.empty());
    }

    void TearDown() override
    {
        server_.reset();
        const std::string cmd = "rm -rf " + dir_;
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    WireRequest sweepRequest() const
    {
        WireRequest request;
        request.op = "sweep";
        request.traces = {hash0_};
        request.configs = paperGrid(1024, 2);
        request.maxRefs = kRefs / 2;
        request.label = "test_serve";
        return request;
    }

    /** Sweeps whose every config and scenario parse cleanly but that
     *  no engine can run: block size 1, an even split of a one-block
     *  cache, and a 2-core scenario with non-power-of-two per-core
     *  nets. Each one used to abort the server inside runSweep. */
    std::vector<WireRequest> unrunnableSweeps() const
    {
        std::vector<WireRequest> out(3, sweepRequest());
        out[0].configs = {makeConfig(1024, 1, 1, 1)};
        CacheConfig split = makeConfig(16, 16, 8, 2);
        split.partition = CachePartition::SplitID;
        out[1].configs = {split};
        CacheConfig mesi = makeConfig(1024, 16, 8, 2);
        mesi.write = WritePolicy::CopyBack;
        out[2].configs = {mesi};
        out[2].scenario.cores = 2;
        mesi.netSize = 1000;
        out[2].scenario.coreConfigs = {mesi, mesi};
        return out;
    }

    std::string dir_;
    obs::Telemetry telemetry_;
    std::unique_ptr<SweepServer> server_;
    std::shared_ptr<const VectorTrace> trace0_, trace1_;
    std::string hash0_, hash1_;
};

} // namespace

TEST_F(ServeTest, RepeatedRequestIsByteIdenticalAndCacheHits)
{
    const WireRequest request = sweepRequest();

    Responses first;
    ASSERT_TRUE(server_->execute(
        request,
        [&](const std::string &p) { return first.collect(p); }));
    Responses second;
    ASSERT_TRUE(server_->execute(
        request,
        [&](const std::string &p) { return second.collect(p); }));

    const auto a = first.results();
    const auto b = second.results();
    ASSERT_EQ(a.size(), request.configs.size());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // The serialized result bytes replay EXACTLY; only the
        // per-emission cached flag differs.
        EXPECT_EQ(resultBytes(a[i]), resultBytes(b[i]));
        EXPECT_FALSE(frameCached(a[i]));
        EXPECT_TRUE(frameCached(b[i]));
    }

    const ServeStats stats = server_->stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.cacheMisses, request.configs.size());
    EXPECT_EQ(stats.cacheHits, request.configs.size());

    // The same split is visible in telemetry...
    EXPECT_EQ(counterValue(telemetry_, "serve.cache_hit"),
              request.configs.size());
    EXPECT_EQ(counterValue(telemetry_, "serve.cache_miss"),
              request.configs.size());

    // ...and in the run manifest's per-request records.
    const obs::RunManifest manifest = obs::currentManifest();
    std::size_t hits = 0, misses = 0, seen = 0;
    for (const obs::ServeRecord &record : manifest.serves) {
        if (record.label != "test_serve")
            continue;
        ++seen;
        hits += record.cacheHits;
        misses += record.cacheMisses;
    }
    EXPECT_GE(seen, 2u);
    EXPECT_GE(hits, request.configs.size());
    EXPECT_GE(misses, request.configs.size());
}

TEST_F(ServeTest, RepeatedAllHitRequestHashesNoTraceRecords)
{
    GlobalTelemetryOn telemetry;
    // Past the entry's ctime, the first request's hash pass leaves the
    // file trusted.
    ASSERT_TRUE(waitPastCtime(dir_ + "/" + hash0_ + ".opc"));
    const WireRequest request = sweepRequest();
    Responses warm;
    ASSERT_TRUE(server_->execute(
        request, [&](const std::string &p) { return warm.collect(p); }));

    const std::uint64_t verified = globalCounter("corpus.verify.refs");
    const std::uint64_t hits = server_->stats().cacheHits;
    for (int i = 0; i < 3; ++i) {
        Responses again;
        ASSERT_TRUE(server_->execute(request, [&](const std::string &p) {
            return again.collect(p);
        }));
    }
    EXPECT_EQ(server_->stats().cacheHits - hits,
              3 * request.configs.size());
    // Each request maps the trace again, but no record is hashed.
    EXPECT_EQ(globalCounter("corpus.verify.refs"), verified);
}

TEST_F(ServeTest, AnyIdentityFieldDifferenceMisses)
{
    const WireRequest base = sweepRequest();
    Responses warm;
    ASSERT_TRUE(server_->execute(
        base, [&](const std::string &p) { return warm.collect(p); }));
    const std::uint64_t misses_after_warm = server_->stats().cacheMisses;

    // Different replacement seed: same geometry, different identity —
    // every cell must be recomputed.
    WireRequest seeded = base;
    for (CacheConfig &config : seeded.configs) {
        config.replacement = ReplacementPolicy::Random;
        config.randomSeed = 99;
    }
    Responses a;
    ASSERT_TRUE(server_->execute(
        seeded, [&](const std::string &p) { return a.collect(p); }));
    EXPECT_EQ(server_->stats().cacheMisses,
              misses_after_warm + seeded.configs.size());

    // Different maxRefs: same configs, different identity.
    WireRequest shorter = base;
    shorter.maxRefs = base.maxRefs / 2;
    Responses b;
    ASSERT_TRUE(server_->execute(
        shorter, [&](const std::string &p) { return b.collect(p); }));
    EXPECT_EQ(server_->stats().cacheMisses,
              misses_after_warm + seeded.configs.size() +
                  shorter.configs.size());
}

TEST_F(ServeTest, ServedResultsAreBitIdenticalToDirectRunSweep)
{
    WireRequest request = sweepRequest();
    request.traces = {hash0_, hash1_};

    SweepRequest direct;
    direct.traces = {trace0_, trace1_};
    direct.configs = request.configs;
    direct.maxRefs = request.maxRefs;
    direct.wantAverage = false;
    const SweepReport expected = runSweep(direct);

    Responses responses;
    ASSERT_TRUE(server_->execute(request, [&](const std::string &p) {
        return responses.collect(p);
    }));
    const auto frames = responses.results();
    ASSERT_EQ(frames.size(),
              request.traces.size() * request.configs.size());

    for (const std::string &frame : frames) {
        obs::JsonValue value;
        ASSERT_TRUE(obs::parseJson(frame, value));
        const std::size_t t = value.find("trace_index")->asU64();
        const std::size_t c = value.find("config_index")->asU64();
        ASSERT_LT(t, expected.perTrace.size());
        ASSERT_LT(c, expected.perTrace[t].size());
        expectIdentical(parseFrameResult(frame),
                        expected.perTrace[t][c]);
    }
}

TEST_F(ServeTest, ResultsStreamInRequestOrder)
{
    WireRequest request = sweepRequest();
    request.traces = {hash0_, hash1_};

    Responses responses;
    ASSERT_TRUE(server_->execute(request, [&](const std::string &p) {
        return responses.collect(p);
    }));
    const auto frames = responses.results();
    ASSERT_EQ(frames.size(),
              request.traces.size() * request.configs.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        obs::JsonValue value;
        ASSERT_TRUE(obs::parseJson(frames[i], value));
        EXPECT_EQ(value.find("trace_index")->asU64(),
                  i / request.configs.size());
        EXPECT_EQ(value.find("config_index")->asU64(),
                  i % request.configs.size());
    }
    obs::JsonValue done;
    ASSERT_TRUE(obs::parseJson(responses.terminal(), done));
    EXPECT_EQ(done.find("type")->text, "done");
    EXPECT_EQ(done.find("cells")->asU64(), frames.size());
}

TEST_F(ServeTest, InvalidRequestsAreRejectedWithErrorFrames)
{
    const auto reject = [&](WireRequest request) {
        Responses responses;
        EXPECT_FALSE(server_->execute(
            request,
            [&](const std::string &p) { return responses.collect(p); }));
        ASSERT_EQ(responses.frames.size(), 1u);
        EXPECT_NE(responses.terminal().find("\"type\":\"error\""),
                  std::string::npos);
    };

    WireRequest unknown_op = sweepRequest();
    unknown_op.op = "frobnicate";
    reject(unknown_op);

    WireRequest unknown_trace = sweepRequest();
    unknown_trace.traces = {"no-such-trace"};
    reject(unknown_trace);

    WireRequest no_configs = sweepRequest();
    no_configs.configs.clear();
    reject(no_configs);

    WireRequest bad_geometry = sweepRequest();
    bad_geometry.configs[0].netSize = 1000;  // not a power of two
    reject(bad_geometry);

    for (const WireRequest &unrunnable : unrunnableSweeps())
        reject(unrunnable);

    EXPECT_GE(server_->stats().rejected, 7u);
}

TEST_F(ServeTest, UnrunnableSweepsGetErrorFramesAndTheConnectionLives)
{
    const std::string socket_path = dir_ + "/serve.sock";
    ASSERT_TRUE(server_->startUnix(socket_path));
    const int fd = connectUnix(socket_path);
    ASSERT_GE(fd, 0);

    WireRequest ping;
    ping.op = "ping";
    for (const WireRequest &request : unrunnableSweeps()) {
        ASSERT_TRUE(writeFrame(fd, wireRequestJson(request)));
        std::string payload;
        ASSERT_EQ(readFrame(fd, payload), FrameStatus::Ok);
        EXPECT_NE(payload.find("\"type\":\"error\""),
                  std::string::npos)
            << payload;

        // The same connection still answers.
        ASSERT_TRUE(writeFrame(fd, wireRequestJson(ping)));
        ASSERT_EQ(readFrame(fd, payload), FrameStatus::Ok);
        EXPECT_NE(payload.find("pong"), std::string::npos) << payload;
    }

    ::close(fd);
    server_->stop();
}

TEST_F(ServeTest, ConcurrentClientsEachSeeBitIdenticalStreams)
{
    constexpr std::size_t kClients = 8;

    // Two distinct request shapes so the cache cannot serve everyone
    // from one client's work.
    std::vector<WireRequest> shapes(2, sweepRequest());
    shapes[0].traces = {hash0_};
    shapes[1].traces = {hash1_};
    shapes[1].priority = 3;

    std::vector<SweepReport> expected;
    for (const WireRequest &shape : shapes) {
        SweepRequest direct;
        direct.traces = {shape.traces[0] == hash0_ ? trace0_ : trace1_};
        direct.configs = shape.configs;
        direct.maxRefs = shape.maxRefs;
        direct.wantAverage = false;
        expected.push_back(runSweep(direct));
    }

    std::vector<Responses> streams(kClients);
    // Not vector<bool>: the clients write their slots concurrently,
    // and bit-packed slots would share words.
    std::vector<std::uint8_t> ok(kClients, 0);
    {
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < kClients; ++i) {
            clients.emplace_back([&, i] {
                const WireRequest &shape = shapes[i % shapes.size()];
                ok[i] = server_->execute(
                    shape, [&streams, i](const std::string &p) {
                        return streams[i].collect(p);
                    });
            });
        }
        for (std::thread &client : clients)
            client.join();
    }

    for (std::size_t i = 0; i < kClients; ++i) {
        ASSERT_TRUE(ok[i]) << "client " << i;
        const SweepReport &want = expected[i % shapes.size()];
        const auto frames = streams[i].results();
        ASSERT_EQ(frames.size(), shapes[0].configs.size());
        for (const std::string &frame : frames) {
            obs::JsonValue value;
            ASSERT_TRUE(obs::parseJson(frame, value));
            const std::size_t c = value.find("config_index")->asU64();
            expectIdentical(parseFrameResult(frame),
                            want.perTrace[0][c]);
        }
    }

    const ServeStats stats = server_->stats();
    EXPECT_EQ(stats.cacheHits + stats.cacheMisses,
              kClients * shapes[0].configs.size());
}

TEST_F(ServeTest, SocketRoundTripStreamsTheSameFrames)
{
    const std::string socket_path = dir_ + "/serve.sock";
    ASSERT_TRUE(server_->startUnix(socket_path));

    const int fd = connectUnix(socket_path);
    ASSERT_GE(fd, 0);

    const WireRequest request = sweepRequest();
    ASSERT_TRUE(writeFrame(fd, wireRequestJson(request)));

    std::size_t results = 0;
    bool done = false;
    while (!done) {
        std::string payload, error;
        const FrameStatus status = readFrame(fd, payload, &error);
        ASSERT_EQ(status, FrameStatus::Ok) << error;
        obs::JsonValue value;
        ASSERT_TRUE(obs::parseJson(payload, value));
        const std::string kind = value.find("type")->text;
        ASSERT_NE(kind, "error") << payload;
        if (kind == "result")
            ++results;
        else if (kind == "done")
            done = true;
    }
    EXPECT_EQ(results, request.configs.size());

    // Liveness after the sweep: a second request on the same
    // connection still answers.
    WireRequest ping;
    ping.op = "ping";
    ASSERT_TRUE(writeFrame(fd, wireRequestJson(ping)));
    std::string payload;
    ASSERT_EQ(readFrame(fd, payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("pong"), std::string::npos);

    ::close(fd);
    server_->stop();
    EXPECT_EQ(server_->activeConnections(), 0u);
}

namespace {

/** @p text as a POSIX extended regex matching itself literally. */
std::string
literalRegex(const std::string &text)
{
    std::string out;
    for (const char ch : text) {
        if (std::string_view("\\^$.|?*+()[]{}").find(ch) !=
            std::string_view::npos)
            out += '\\';
        out += ch;
    }
    return out;
}

} // namespace

TEST(ServeConfigValidation, MirrorsGeometryRulesNonFatally)
{
    // The forked children re-run this test alone: the suite's other
    // tests leave pool threads behind that fork would not copy.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    const CacheConfig good = makeConfig(1024, 16, 8, 2);
    EXPECT_EQ(validateConfig(good), "");
    EXPECT_EQ(validateServeConfig(good), "");

    struct Case
    {
        const char *rule;
        CacheConfig config;
    };
    std::vector<Case> cases(9, Case{"", good});
    cases[0].rule = "powers of two";
    cases[0].config.netSize = 1000;
    cases[1].rule = "sub-block <= block";
    cases[1].config.subBlockSize = 32;
    cases[2].rule = "block <= net";
    cases[2].config.blockSize = 2048;
    cases[3].rule = "word <= sub-block";
    cases[3].config.wordSize = 16;
    cases[4].rule = "address bits in [1, 32]";
    cases[4].config.addressBits = 40;
    cases[5].rule = "address space holds a block";
    cases[5].config.addressBits = 4;
    cases[6].rule = "at most 64 sub-blocks";
    cases[6].config = makeConfig(1024, 1024, 8, 2);
    cases[7].rule = "block size >= 2";
    cases[7].config = makeConfig(1024, 1, 1, 1);
    cases[8].rule = "split net >= 2 blocks";
    cases[8].config = makeConfig(16, 16, 8, 2);
    cases[8].config.partition = CachePartition::SplitID;

    // A split cache two blocks big is fine.
    CacheConfig split_ok = makeConfig(32, 16, 8, 2);
    split_ok.partition = CachePartition::SplitID;
    EXPECT_EQ(validateConfig(split_ok), "");

    for (const Case &c : cases) {
        const std::string why = validateConfig(c.config);
        ASSERT_NE(why, "") << c.rule;
        EXPECT_EQ(validateServeConfig(c.config), why) << c.rule;
        // CacheGeometry dies on exactly the message the validator
        // returns, so the two cannot drift apart.
        EXPECT_EXIT(CacheGeometry(c.config),
                    ::testing::ExitedWithCode(1), literalRegex(why))
            << c.rule;
    }

    // Per-core shapes go through the same rules.
    CacheConfig mesi = good;
    mesi.write = WritePolicy::CopyBack;
    ScenarioConfig scenario;
    scenario.cores = 2;
    scenario.coreConfigs = {mesi, cases[0].config};
    scenario.coreConfigs[1].write = WritePolicy::CopyBack;
    const std::string core_why = validateScenario(scenario, {mesi});
    EXPECT_NE(core_why.find(validateConfig(scenario.coreConfigs[1])),
              std::string::npos)
        << core_why;
}
