#include "check/serve_check.hh"

#include <cerrno>
#include <cstring>
#include <iterator>
#include <ostream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/str.hh"
#include "workload/suites.hh"

namespace occsim {

namespace {

using serve::FrameStatus;
using serve::SweepServer;
using serve::WireRequest;

/** The adversarial shapes the generator draws from. */
enum class Scenario : std::uint8_t {
    Garbage = 0,          ///< random bytes, no frame structure
    TruncatedHeader,      ///< 1-3 bytes of a length prefix, then close
    OversizedLength,      ///< length prefix beyond kMaxFramePayload
    TruncatedPayload,     ///< valid header, payload cut short
    MalformedJson,        ///< framed, but the payload is not JSON
    WrongSchema,          ///< valid JSON with the wrong request shape
    UnknownOp,            ///< well-formed request, unrecognized op
    UnknownTrace,         ///< sweep naming a trace the corpus lacks
    InvalidConfig,        ///< sweep with a config validateConfig rejects
    InvalidScenario,      ///< multicore scenario the validator rejects
    ScenarioSweep,        ///< multicore + 1-core sweeps must not alias
    AbruptDisconnect,     ///< valid sweep, close after one response
    ValidPing,            ///< control: must answer pong
    ValidSweep,           ///< control: must stream results + done
    kCount,
};

const char *
scenarioName(Scenario scenario)
{
    switch (scenario) {
    case Scenario::Garbage:
        return "garbage";
    case Scenario::TruncatedHeader:
        return "truncated-header";
    case Scenario::OversizedLength:
        return "oversized-length";
    case Scenario::TruncatedPayload:
        return "truncated-payload";
    case Scenario::MalformedJson:
        return "malformed-json";
    case Scenario::WrongSchema:
        return "wrong-schema";
    case Scenario::UnknownOp:
        return "unknown-op";
    case Scenario::UnknownTrace:
        return "unknown-trace";
    case Scenario::InvalidConfig:
        return "invalid-config";
    case Scenario::InvalidScenario:
        return "invalid-scenario";
    case Scenario::ScenarioSweep:
        return "scenario-sweep";
    case Scenario::AbruptDisconnect:
        return "abrupt-disconnect";
    case Scenario::ValidPing:
        return "valid-ping";
    case Scenario::ValidSweep:
        return "valid-sweep";
    case Scenario::kCount:
        break;
    }
    return "unknown";
}

/** One client connection to an in-process server: a socketpair with
 *  the server end driven by a handleConnection thread. */
class Connection
{
  public:
    explicit Connection(SweepServer &server)
    {
        int fds[2] = {-1, -1};
        occsim_assert(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                      "socketpair failed: %s", std::strerror(errno));
        fd_ = fds[0];
        server_ = std::thread(
            [&server, server_fd = fds[1]] {
                server.handleConnection(server_fd);
            });
    }

    ~Connection()
    {
        closeClient();
        server_.join();
    }

    int fd() const { return fd_; }

    void closeClient()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    bool sendRaw(const void *data, std::size_t bytes)
    {
        const char *p = static_cast<const char *>(data);
        while (bytes > 0) {
            const ssize_t put = ::send(fd_, p, bytes, MSG_NOSIGNAL);
            if (put < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            p += put;
            bytes -= static_cast<std::size_t>(put);
        }
        return true;
    }

  private:
    int fd_ = -1;
    std::thread server_;
};

/** Read response frames until "done"/"error"/EOF. @return the type
 *  of the final frame ("" on framing trouble). Captures every raw
 *  payload into @p payloads when given. */
std::string
drainResponses(int fd, std::size_t *frames = nullptr,
               std::vector<std::string> *payloads = nullptr)
{
    std::string last_type;
    std::string payload;
    for (;;) {
        const FrameStatus status = serve::readFrame(fd, payload);
        if (status != FrameStatus::Ok)
            return last_type;
        if (frames)
            ++*frames;
        if (payloads)
            payloads->push_back(payload);
        obs::JsonValue root;
        if (!obs::parseJson(payload, root))
            return "";
        const obs::JsonValue *type = root.find("type");
        last_type = type && type->isString() ? type->text : "";
        if (last_type == "done" || last_type == "error" ||
            last_type == "pong" || last_type == "ok" ||
            last_type == "stats" || last_type == "list")
            return last_type;
    }
}

/** A tiny valid sweep request against @p trace_ref. */
WireRequest
sweepRequest(const std::string &trace_ref)
{
    WireRequest request;
    request.op = "sweep";
    request.traces = {trace_ref};
    request.configs = {makeConfig(256, 16, 8, 2),
                       makeConfig(512, 32, 8, 2)};
    request.maxRefs = 2048;
    request.label = "serve-check";
    return request;
}

/** A valid 2-core coherency sweep against @p trace_ref: one
 *  MESI-subset config (copy-back, write-allocate, demand, unified). */
WireRequest
scenarioSweepRequest(const std::string &trace_ref)
{
    WireRequest request;
    request.op = "sweep";
    request.traces = {trace_ref};
    CacheConfig config = makeConfig(256, 16, 8, 2);
    config.write = WritePolicy::CopyBack;
    request.configs = {config};
    request.scenario.cores = 2;
    request.maxRefs = 2048;
    request.label = "serve-check-scenario";
    return request;
}

} // namespace

ServeCheckSummary
runServeCheck(const ServeCheckOptions &options)
{
    ServeCheckSummary summary;
    std::ostream *out = options.out;

    std::string corpus_dir = options.corpusDir;
    if (corpus_dir.empty()) {
        corpus_dir = strfmt("/tmp/occsim-serve-check-%d-%llx",
                            static_cast<int>(::getpid()),
                            static_cast<unsigned long long>(
                                options.seed));
    }

    serve::ServeOptions serve_options;
    serve_options.corpusDir = corpus_dir;
    serve_options.dispatchers = 1;
    SweepServer server(serve_options);

    // Ingest one small trace so the valid-sweep control cases run the
    // full corpus -> engine -> cache path.
    const auto trace =
        buildTraceShared(pdp11Suite().traces.front(), 4096);
    std::string error;
    const std::string trace_hash = server.corpus().ingest(*trace, &error);
    occsim_assert(!trace_hash.empty(), "serve-check ingest failed: %s",
                  error.c_str());

    Rng master(options.seed);
    const auto fail = [&](std::uint64_t case_seed,
                          const char *scenario, const char *why) {
        ++summary.failures;
        if (summary.failures == 1)
            summary.firstFailureSeed = case_seed;
        if (out) {
            *out << "serve-check FAIL seed=0x" << std::hex << case_seed
                 << std::dec << " scenario=" << scenario << ": " << why
                 << "\n";
        }
    };

    for (std::uint64_t i = 0; i < options.cases; ++i) {
        const std::uint64_t case_seed = master.next();
        Rng rng(case_seed);
        const auto scenario = static_cast<Scenario>(rng.below(
            static_cast<std::uint64_t>(Scenario::kCount)));
        ++summary.cases;
        if (out && options.verbose) {
            *out << "serve-check case " << i << " seed=0x" << std::hex
                 << case_seed << std::dec << " "
                 << scenarioName(scenario) << "\n";
        }

        {
            Connection conn(server);
            switch (scenario) {
            case Scenario::Garbage: {
                // Random bytes. Statistically the leading u32 is huge
                // (rejected as oversized) or promises a payload that
                // never arrives (rejected at close) — either way the
                // server must answer an error and drop the connection.
                const std::size_t n = 5 + rng.below(64);
                std::vector<unsigned char> bytes(n);
                for (auto &b : bytes)
                    b = static_cast<unsigned char>(rng.below(256));
                conn.sendRaw(bytes.data(), bytes.size());
                conn.closeClient();
                ++summary.rejected;
                break;
            }
            case Scenario::TruncatedHeader: {
                const std::size_t n = 1 + rng.below(3);
                std::vector<unsigned char> bytes(n);
                for (auto &b : bytes)
                    b = static_cast<unsigned char>(rng.below(256));
                conn.sendRaw(bytes.data(), bytes.size());
                conn.closeClient();
                ++summary.rejected;
                break;
            }
            case Scenario::OversizedLength: {
                const std::uint32_t length =
                    serve::kMaxFramePayload + 1 +
                    static_cast<std::uint32_t>(rng.below(1u << 20));
                const std::uint8_t header[4] = {
                    static_cast<std::uint8_t>(length),
                    static_cast<std::uint8_t>(length >> 8),
                    static_cast<std::uint8_t>(length >> 16),
                    static_cast<std::uint8_t>(length >> 24),
                };
                conn.sendRaw(header, sizeof(header));
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "oversized-length",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::TruncatedPayload: {
                const std::string payload = "{\"op\":\"ping\"}";
                const std::uint32_t length =
                    static_cast<std::uint32_t>(payload.size());
                const std::uint8_t header[4] = {
                    static_cast<std::uint8_t>(length),
                    static_cast<std::uint8_t>(length >> 8),
                    static_cast<std::uint8_t>(length >> 16),
                    static_cast<std::uint8_t>(length >> 24),
                };
                conn.sendRaw(header, sizeof(header));
                // Deliver only part of the promised payload.
                conn.sendRaw(payload.data(),
                             rng.below(payload.size()));
                conn.closeClient();
                ++summary.rejected;
                break;
            }
            case Scenario::MalformedJson: {
                static const char *broken[] = {
                    "{\"op\":", "not json at all", "{]",
                    "{\"op\":\"ping\"", "\x00\x01\x02",
                };
                serve::writeFrame(
                    conn.fd(),
                    broken[rng.below(std::size(broken))]);
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "malformed-json",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::WrongSchema: {
                static const char *shapes[] = {
                    "[1,2,3]",
                    "{\"no_op\":true}",
                    "{\"op\":42}",
                    "{\"op\":\"sweep\",\"traces\":\"x\"}",
                    "{\"op\":\"sweep\",\"traces\":[1]}",
                    "{\"op\":\"sweep\",\"traces\":[\"x\"],"
                    "\"configs\":[{\"net\":\"big\"}]}",
                    "{\"op\":\"sweep\",\"traces\":[\"x\"],"
                    "\"configs\":{}}",
                    "{\"op\":\"sweep\",\"max_refs\":\"lots\"}",
                };
                serve::writeFrame(conn.fd(),
                                  shapes[rng.below(std::size(shapes))]);
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "wrong-schema",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::UnknownOp: {
                WireRequest request;
                request.op = "ingest";  // deliberately not a wire op
                serve::writeFrame(conn.fd(),
                                  serve::wireRequestJson(request));
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "unknown-op",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::UnknownTrace: {
                WireRequest request = sweepRequest(
                    strfmt("%016llx",
                           static_cast<unsigned long long>(
                               rng.next())));
                serve::writeFrame(conn.fd(),
                                  serve::wireRequestJson(request));
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "unknown-trace",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::InvalidConfig: {
                WireRequest request = sweepRequest(trace_hash);
                CacheConfig &config = request.configs[0];
                switch (rng.below(6)) {
                case 0:
                    config.netSize = 1000;  // not a power of two
                    break;
                case 1:
                    config.subBlockSize = 2 * config.blockSize;
                    break;
                case 2:
                    config.blockSize = 2 * config.netSize;
                    break;
                case 3:
                    // Block size 1: passes every ordering rule.
                    config.blockSize = 1;
                    config.subBlockSize = 1;
                    config.wordSize = 1;
                    break;
                case 4:
                    // An even split of a one-block cache.
                    config.netSize = config.blockSize;
                    config.partition = CachePartition::SplitID;
                    break;
                default:
                    config.addressBits = 40;
                    break;
                }
                serve::writeFrame(conn.fd(),
                                  serve::wireRequestJson(request));
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "invalid-config",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::InvalidScenario: {
                // Scenarios the parser or validator must reject: an
                // out-of-range core count, an unsupported (non-MESI)
                // config, mismatched per-core shapes, per-core shapes
                // alongside a multi-config grid, or per-core shapes
                // with an invalid geometry.
                WireRequest request = scenarioSweepRequest(trace_hash);
                CacheConfig core = request.configs.front();
                std::string frame;
                switch (rng.below(6)) {
                case 0:
                    // Default makeConfig is write-through: outside
                    // the MESI subset.
                    request = sweepRequest(trace_hash);
                    request.scenario.cores = 2;
                    break;
                case 1:
                    frame = "{\"op\":\"sweep\",\"scenario\":"
                            "{\"cores\":0}}";
                    break;
                case 2:
                    frame = "{\"op\":\"sweep\",\"scenario\":"
                            "{\"cores\":99}}";
                    break;
                case 3:
                    // Three per-core shapes for two cores.
                    request.scenario.coreConfigs.assign(3, core);
                    break;
                case 4:
                    // Per-core shapes must collapse the grid to one
                    // config; send two.
                    request.scenario.coreConfigs.assign(2, core);
                    request.configs.push_back(core);
                    break;
                default:
                    // Per-core nets that are not powers of two.
                    core.netSize = 1000;
                    request.scenario.coreConfigs.assign(2, core);
                    break;
                }
                serve::writeFrame(conn.fd(),
                                  frame.empty()
                                      ? serve::wireRequestJson(request)
                                      : frame);
                const std::string last = drainResponses(conn.fd());
                if (last != "error") {
                    fail(case_seed, "invalid-scenario",
                         "expected an error response");
                }
                ++summary.rejected;
                break;
            }
            case Scenario::ScenarioSweep: {
                // The aliasing check: a 2-core sweep and the
                // identical 1-core sweep must produce distinct cache
                // entries — the multicore result carries coherency
                // columns, the single-cache one must not, even when
                // both are served from the result cache.
                const WireRequest multi =
                    scenarioSweepRequest(trace_hash);
                WireRequest single = multi;
                single.scenario = ScenarioConfig{};

                bool ok = true;
                const auto sweepOnce = [&](const WireRequest &request,
                                           bool want_coherency,
                                           const char *why) {
                    Connection sweep_conn(server);
                    serve::writeFrame(
                        sweep_conn.fd(),
                        serve::wireRequestJson(request));
                    std::size_t frames = 0;
                    std::vector<std::string> payloads;
                    const std::string last = drainResponses(
                        sweep_conn.fd(), &frames, &payloads);
                    const bool has_coherency =
                        !payloads.empty() &&
                        payloads.front().find("\"coherency\"") !=
                            std::string::npos;
                    if (last != "done" || frames != 2 ||
                        has_coherency != want_coherency) {
                        fail(case_seed, "scenario-sweep", why);
                        ok = false;
                    }
                };
                sweepOnce(multi, true,
                          "multicore sweep missing coherency columns");
                sweepOnce(single, false,
                          "1-core result aliased to the multicore "
                          "cache entry");
                // Cache-hit replay of the multicore entry.
                sweepOnce(multi, true,
                          "cached multicore result lost its coherency "
                          "columns");
                if (ok)
                    ++summary.completed;
                break;
            }
            case Scenario::AbruptDisconnect: {
                serve::writeFrame(
                    conn.fd(),
                    serve::wireRequestJson(sweepRequest(trace_hash)));
                // Read at most one response frame, then vanish
                // mid-stream.
                std::string payload;
                if (rng.chance(0.5))
                    serve::readFrame(conn.fd(), payload);
                conn.closeClient();
                ++summary.rejected;
                break;
            }
            case Scenario::ValidPing: {
                WireRequest request;
                request.op = "ping";
                serve::writeFrame(conn.fd(),
                                  serve::wireRequestJson(request));
                const std::string last = drainResponses(conn.fd());
                if (last != "pong") {
                    fail(case_seed, "valid-ping",
                         "expected a pong response");
                } else {
                    ++summary.completed;
                }
                break;
            }
            case Scenario::ValidSweep: {
                serve::writeFrame(
                    conn.fd(),
                    serve::wireRequestJson(sweepRequest(trace_hash)));
                std::size_t frames = 0;
                const std::string last =
                    drainResponses(conn.fd(), &frames);
                // 2 configs -> 2 result frames + done.
                if (last != "done" || frames != 3) {
                    fail(case_seed, "valid-sweep",
                         "expected 2 results and done");
                } else {
                    ++summary.completed;
                }
                break;
            }
            case Scenario::kCount:
                break;
            }
        }
        // The Connection destructor joined the handler: its slot must
        // be back.
        if (server.activeConnections() != 0) {
            fail(case_seed, scenarioName(scenario),
                 "connection slot leaked");
        }

        // Liveness probe: whatever the case did, a fresh connection
        // must still be served.
        {
            Connection probe(server);
            WireRequest request;
            request.op = "ping";
            serve::writeFrame(probe.fd(),
                              serve::wireRequestJson(request));
            if (drainResponses(probe.fd()) != "pong") {
                fail(case_seed, scenarioName(scenario),
                     "server unservable after case");
            }
        }
    }

    server.stop();
    if (out) {
        *out << "serve-check: " << summary.cases << " cases, "
             << summary.rejected << " rejected, " << summary.completed
             << " completed, " << summary.failures << " failures\n";
    }
    return summary;
}

} // namespace occsim
