#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "cache/cache_geometry.hh"
#include "multi/sweep_api.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim::serve {

namespace {

/** Cells per request cap: bounds the per-request bookkeeping one
 *  client can demand (a full paper grid over a suite is ~1k cells). */
constexpr std::size_t kMaxRequestCells = 1u << 16;

/**
 * Shared completion state of one sweep request. The handler thread
 * waits on it cell by cell; dispatcher jobs fill it. Jobs hold a
 * shared_ptr, so a handler abandoning its wait (client gone) never
 * leaves a job writing into freed memory.
 */
struct RequestState
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> keys;      ///< cache key per cell
    std::vector<std::string> payloads;  ///< serialized result per cell
    std::vector<char> ready;
    std::string failure;  ///< non-empty: a job failed; abort emission
};

/** Wrap a serialized result payload in its streaming envelope. The
 *  payload bytes are embedded verbatim, so a cache hit replays the
 *  first computation's bytes exactly. */
std::string
resultFrame(const std::string &trace_hash, std::size_t trace_index,
            std::size_t config_index, bool cached,
            const std::string &payload)
{
    std::string out = "{\"type\":\"result\",\"trace\":\"";
    out += trace_hash;
    out += "\",\"trace_index\":";
    out += std::to_string(trace_index);
    out += ",\"config_index\":";
    out += std::to_string(config_index);
    out += ",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"result\":";
    out += payload;
    out += "}";
    return out;
}

} // namespace

std::string
validateServeConfig(const CacheConfig &config)
{
    return validateConfig(config);
}

SweepServer::SweepServer(ServeOptions options)
    : options_(std::move(options)), corpus_(options_.corpusDir),
      cache_(options_.cacheCapacity)
{
    if (options_.streamTile == 0)
        options_.streamTile = 16;
    const unsigned dispatchers =
        std::max(1u, options_.dispatchers);
    dispatchers_.reserve(dispatchers);
    for (unsigned d = 0; d < dispatchers; ++d)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

SweepServer::~SweepServer()
{
    stop();
}

void
SweepServer::count(const char *name, std::uint64_t delta)
{
    if (options_.telemetry != nullptr)
        options_.telemetry->counterAdd(name, delta);
    else
        OCCSIM_TELEM_COUNT(name, delta);
}

void
SweepServer::enqueue(Job job)
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        job.seq = nextSeq_++;
        queue_.push(std::move(job));
        // queue_depth telemetry is a HIGH-WATER mark: counters are
        // monotonic, so the counter carries the deepest queue ever
        // seen, advanced by deltas.
        const std::uint64_t depth = queue_.size();
        if (depth > queueHighWater_) {
            count("serve.queue_depth", depth - queueHighWater_);
            queueHighWater_ = depth;
        }
    }
    queueCv_.notify_one();
}

void
SweepServer::dispatchLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return !queue_.empty() || draining_;
            });
            if (queue_.empty()) {
                // Draining and empty: every accepted job has run, so
                // no handler can be left waiting on a cell.
                return;
            }
            job = queue_.top();
            queue_.pop();
        }
        job.work();
    }
}

bool
SweepServer::execute(
    const WireRequest &request,
    const std::function<bool(const std::string &)> &emit)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    count("serve.requests", 1);
    obs::StageTimer span("serve.request", options_.telemetry);

    if (request.op == "ping") {
        emit("{\"type\":\"pong\"}");
        return true;
    }
    if (request.op == "shutdown") {
        shutdown_.store(true, std::memory_order_release);
        shutdownCv_.notify_all();
        emit("{\"type\":\"ok\"}");
        return true;
    }
    if (request.op == "stats") {
        const ServeStats s = stats();
        obs::JsonWriter w;
        w.beginObject()
            .kv("type", "stats")
            .kv("requests", s.requests)
            .kv("sweeps", s.sweeps)
            .kv("cache_hits", s.cacheHits)
            .kv("cache_misses", s.cacheMisses)
            .kv("cache_entries", std::uint64_t{s.cacheEntries})
            .kv("rejected", s.rejected)
            .kv("queue_high_water", s.queueHighWater)
            .kv("active_connections",
                std::uint64_t{s.activeConnections})
            .endObject();
        emit(w.str());
        return true;
    }
    if (request.op == "list") {
        std::string error;
        const std::vector<CorpusEntry> all = corpus_.entries(&error);
        if (!error.empty()) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            emit(errorResponse(error));
            return false;
        }
        obs::JsonWriter w;
        w.beginObject().kv("type", "list").key("entries").beginArray();
        for (const CorpusEntry &entry : all) {
            w.beginObject()
                .kv("hash", entry.hash)
                .kv("name", entry.name)
                .kv("refs", entry.refs)
                .kv("word", std::uint64_t{entry.wordSize})
                .endObject();
        }
        w.endArray().endObject();
        emit(w.str());
        return true;
    }
    if (request.op == "sweep")
        return executeSweep(request, emit);

    rejected_.fetch_add(1, std::memory_order_relaxed);
    count("serve.reject", 1);
    emit(errorResponse(strfmt("unknown op '%s'", request.op.c_str())));
    return false;
}

bool
SweepServer::executeSweep(
    const WireRequest &request,
    const std::function<bool(const std::string &)> &emit)
{
    const auto start = std::chrono::steady_clock::now();
    const auto reject = [&](const std::string &message) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        count("serve.reject", 1);
        emit(errorResponse(message));
        return false;
    };

    const std::size_t nt = request.traces.size();
    const std::size_t nc = request.configs.size();
    if (nt * nc > kMaxRequestCells) {
        return reject(strfmt("request of %zu x %zu cells exceeds the "
                             "%zu cell cap",
                             nt, nc, kMaxRequestCells));
    }

    // Resolve every trace against the corpus up front; an unknown or
    // corrupt trace rejects the request before any work is queued.
    std::vector<std::string> hashes(nt);
    SweepRequest sweep;
    sweep.packedTraces.resize(nt);
    for (std::size_t t = 0; t < nt; ++t) {
        std::string error;
        hashes[t] = corpus_.resolve(request.traces[t], &error);
        if (hashes[t].empty())
            return reject(error);
        sweep.packedTraces[t] = corpus_.open(hashes[t], &error);
        if (!sweep.packedTraces[t])
            return reject(error);
    }

    // The whole wire request as one SweepRequest, checked by the same
    // gate runSweep asserts on: the wire must never smuggle a shape
    // the engines cannot run.
    const std::string label =
        request.label.empty() ? "serve" : request.label;
    sweep.configs = request.configs;
    sweep.scenario = request.scenario;
    sweep.maxRefs = request.maxRefs;
    sweep.pool = options_.pool;
    sweep.wantAverage = false;
    sweep.label = "serve:" + label;
    sweep.telemetry = options_.telemetry;
    const std::string invalid = validateSweepRequest(sweep);
    if (!invalid.empty())
        return reject(invalid);

    sweeps_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t cells = nt * nc;
    auto state = std::make_shared<RequestState>();
    state->keys.resize(cells);
    state->payloads.resize(cells);
    state->ready.assign(cells, 0);

    // Cache pass: hits are complete immediately; misses are grouped
    // per trace for tiling.
    std::vector<char> cached(cells, 0);
    std::vector<std::vector<std::size_t>> miss_configs(nt);
    std::size_t hits = 0;
    for (std::size_t t = 0; t < nt; ++t) {
        for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t cell = t * nc + c;
            state->keys[cell] = ResultCache::key(
                hashes[t], request.maxRefs, request.configs[c],
                request.scenario);
            if (cache_.lookup(state->keys[cell],
                              state->payloads[cell])) {
                state->ready[cell] = 1;
                cached[cell] = 1;
                ++hits;
            } else {
                miss_configs[t].push_back(c);
            }
        }
    }
    const std::size_t misses = cells - hits;
    if (hits > 0)
        count("serve.cache_hit", hits);
    if (misses > 0)
        count("serve.cache_miss", misses);

    // Reorder each trace's misses so the planner's fused groups sit
    // adjacent: the tiles below slice this list, and the sweep engine
    // can only fuse members that land in the same tile. Ineligible
    // configs and fused singletons keep their order after the groups.
    for (auto &missing : miss_configs) {
        std::vector<std::size_t> ordered;
        ordered.reserve(missing.size());
        std::vector<char> placed(nc, 0);
        for (const auto &group :
             fusableGroups(request.configs, missing)) {
            for (const std::size_t c : group) {
                ordered.push_back(c);
                placed[c] = 1;
            }
        }
        for (const std::size_t c : missing) {
            if (!placed[c])
                ordered.push_back(c);
        }
        missing = std::move(ordered);
    }

    // Queue one job per (trace, config tile): a copy of the request
    // narrowed to that trace and those configs. Tiles are the fairness
    // and streaming granularity (see the file comment in server.hh).
    for (std::size_t t = 0; t < nt; ++t) {
        const auto &missing = miss_configs[t];
        for (std::size_t base = 0; base < missing.size();
             base += options_.streamTile) {
            const std::size_t end = std::min(
                missing.size(), base + options_.streamTile);
            std::vector<std::size_t> tile(missing.begin() + base,
                                          missing.begin() + end);
            SweepRequest narrowed = sweep;
            narrowed.packedTraces = {sweep.packedTraces[t]};
            narrowed.configs.clear();
            for (const std::size_t c : tile)
                narrowed.configs.push_back(sweep.configs[c]);
            Job job;
            job.priority = request.priority;
            job.work = [this, state, t, nc, tile = std::move(tile),
                        narrowed = std::move(narrowed)] {
                try {
                    const SweepReport report = runSweep(narrowed);
                    for (std::size_t k = 0; k < tile.size(); ++k) {
                        const std::size_t cell = t * nc + tile[k];
                        const SweepResult &result =
                            report.perTrace[0][k];
                        obs::JsonWriter w;
                        writeResultJson(w, result);
                        // First computation's bytes win in the cache,
                        // so concurrent duplicate requests converge
                        // on one byte sequence (the engines make the
                        // values bit-identical either way).
                        cache_.insert(state->keys[cell], w.str());
                        {
                            std::lock_guard<std::mutex> lock(
                                state->mutex);
                            state->payloads[cell] = w.str();
                            state->ready[cell] = 1;
                        }
                        state->cv.notify_all();
                    }
                } catch (const std::exception &e) {
                    {
                        std::lock_guard<std::mutex> lock(state->mutex);
                        state->failure = e.what();
                    }
                    state->cv.notify_all();
                }
            };
            enqueue(std::move(job));
        }
    }

    // Stream cells in request order as they become ready. A false
    // return from emit means the client is gone: stop emitting, but
    // the queued jobs still run and populate the cache.
    bool client_alive = true;
    for (std::size_t cell = 0; cell < cells && client_alive; ++cell) {
        if (!cached[cell]) {
            // ready[] for computed cells is written by dispatcher
            // jobs; only ever read it under the state mutex.
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cv.wait(lock, [&] {
                return state->ready[cell] != 0 ||
                       !state->failure.empty();
            });
            if (!state->failure.empty()) {
                emit(errorResponse(
                    strfmt("sweep failed: %s",
                           state->failure.c_str())));
                return false;
            }
        }
        client_alive = emit(resultFrame(hashes[cell / nc], cell / nc,
                                        cell % nc, cached[cell] != 0,
                                        state->payloads[cell]));
    }

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (client_alive) {
        obs::JsonWriter w;
        w.beginObject()
            .kv("type", "done")
            .kv("cells", std::uint64_t{cells})
            .kv("cache_hits", std::uint64_t{hits})
            .kv("cache_misses", std::uint64_t{misses})
            .kv("wall_ms", wall_ms)
            .endObject();
        emit(w.str());
    }

    obs::ServeRecord record;
    record.label = label;
    record.op = "sweep";
    record.numTraces = nt;
    record.numConfigs = nc;
    record.cells = cells;
    record.cacheHits = hits;
    record.cacheMisses = misses;
    record.priority = request.priority;
    record.wallMs = wall_ms;
    obs::recordServe(record);
    return true;
}

void
SweepServer::handleConnection(int fd)
{
    active_.fetch_add(1, std::memory_order_acq_rel);
    std::string payload;
    for (;;) {
        std::string error;
        const FrameStatus status = readFrame(fd, payload, &error);
        if (status == FrameStatus::Closed)
            break;
        if (status == FrameStatus::Malformed) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            count("serve.reject", 1);
            // The stream is no longer framed; answer and close.
            writeFrame(fd, errorResponse(error));
            break;
        }
        WireRequest request;
        if (!parseWireRequest(payload, request, &error)) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            count("serve.reject", 1);
            // Frame boundaries are intact: reject the request but
            // keep the connection serviceable.
            if (!writeFrame(fd, errorResponse(error)))
                break;
            continue;
        }
        bool peer_alive = true;
        execute(request, [&](const std::string &response) {
            if (!writeFrame(fd, response)) {
                peer_alive = false;
                return false;
            }
            return true;
        });
        if (!peer_alive || request.op == "shutdown")
            break;
    }
    ::close(fd);
    active_.fetch_sub(1, std::memory_order_acq_rel);
}

void
SweepServer::acceptLoop(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener closed by stop()
        }
        if (active_.load(std::memory_order_acquire) >=
            options_.maxConnections) {
            count("serve.conn_refused", 1);
            writeFrame(fd,
                       errorResponse("server at connection capacity"));
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

bool
SweepServer::startUnix(const std::string &path, std::string *error)
{
    const int fd = listenUnix(path, error);
    if (fd < 0)
        return false;
    std::lock_guard<std::mutex> lock(connMutex_);
    listenFds_.push_back(fd);
    acceptThreads_.emplace_back([this, fd] { acceptLoop(fd); });
    return true;
}

bool
SweepServer::startTcp(std::uint16_t port, std::uint16_t *bound_port,
                      std::string *error)
{
    const int fd = listenTcp(port, bound_port, error);
    if (fd < 0)
        return false;
    std::lock_guard<std::mutex> lock(connMutex_);
    listenFds_.push_back(fd);
    acceptThreads_.emplace_back([this, fd] { acceptLoop(fd); });
    return true;
}

void
SweepServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested(); });
}

void
SweepServer::stop()
{
    if (stopped_.exchange(true))
        return;

    // Unblock and retire the accept loops first, so the connection
    // set stops growing.
    std::vector<std::thread> accepts;
    std::vector<int> listeners;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        listeners.swap(listenFds_);
        accepts.swap(acceptThreads_);
    }
    for (const int fd : listeners) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    for (std::thread &thread : accepts)
        thread.join();

    // Then every in-flight connection: handlers block in readFrame
    // only while their client is connected; joining here means every
    // accepted request has been fully answered.
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns.swap(connThreads_);
    }
    for (std::thread &thread : conns)
        thread.join();

    // Finally drain the dispatchers: they exit only once the queue is
    // empty, so every accepted job runs even during shutdown.
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        draining_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &thread : dispatchers_)
        thread.join();
    dispatchers_.clear();

    shutdownCv_.notify_all();
}

ServeStats
SweepServer::stats()
{
    ServeStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.sweeps = sweeps_.load(std::memory_order_relaxed);
    s.cacheHits = cache_.hits();
    s.cacheMisses = cache_.misses();
    s.rejected = rejected_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        s.queueHighWater = queueHighWater_;
    }
    s.cacheEntries = cache_.size();
    s.activeConnections = active_.load(std::memory_order_acquire);
    return s;
}

} // namespace occsim::serve
