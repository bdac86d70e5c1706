/**
 * @file
 * The occsim sweep server: a long-lived daemon serving concurrent
 * SweepRequests over Unix/TCP sockets from an on-disk trace corpus,
 * with a manifest-keyed result cache.
 *
 * Request lifecycle:
 *
 *   client frame → parse (serve/protocol.hh) → resolve traces against
 *   the corpus (mmap, shared) → per-cell result-cache lookup → cache
 *   hits stream back immediately; misses are split into config tiles
 *   and queued as jobs → dispatcher threads pop jobs (highest
 *   priority first, FIFO within a priority) and run them through
 *   runSweep's packed path on the shared ThreadPool → each finished
 *   cell is serialized once, inserted into the cache, and streamed to
 *   the client in request order.
 *
 * Fairness: the unit of scheduling is a TILE (streamTile configs of
 * one trace), not a whole request, so one giant sweep cannot occupy
 * the pool to the exclusion of small interactive requests — tiles of
 * later-arriving higher-priority requests overtake queued tiles of
 * the big one at every dispatch point. Within one priority the queue
 * is strictly FIFO by arrival sequence.
 *
 * Identity: a cell's cache key is (trace content hash, maxRefs,
 * canonicalConfigJson) — exactly the fields that determine the
 * bit-identical result every engine must produce. Hits replay the
 * first computation's serialized bytes, so repeated requests are
 * byte-identical on the wire.
 *
 * Observability: serve.cache_hit / serve.cache_miss / serve.requests
 * counters, a serve.queue_depth high-water counter, a serve.request
 * stage span per request, and one obs::ServeRecord per request in
 * the run manifest (auditable via occsim-report).
 *
 * Failure containment: a malformed frame or request is answered with
 * an error frame and never reaches an engine. After its traces
 * resolve, the whole request is checked by validateSweepRequest
 * (multi/sweep_api.hh), the gate runSweep itself asserts on, so every
 * shape rule (validateConfig, validateScenario, engine policy) has
 * one home and a request the engines cannot run is an error frame,
 * never an abort. A client that disconnects mid-stream stops its
 * emission but queued tiles still complete and populate the cache
 * (the work is never wasted).
 */

#ifndef OCCSIM_SERVE_SERVER_HH
#define OCCSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "trace/corpus.hh"
#include "util/thread_pool.hh"

namespace occsim::serve {

/** Construction-time server configuration. */
struct ServeOptions
{
    /** Corpus directory (created if missing). Required. */
    std::string corpusDir;

    /** Pool the sweep engines run on; nullptr = globalThreadPool(). */
    ThreadPool *pool = nullptr;

    /** Result-cache capacity in cells. */
    std::size_t cacheCapacity = 4096;

    /** Dispatcher threads draining the job queue. Each runs one tile
     *  at a time through runSweep (which itself parallelizes over the
     *  pool), so this bounds how many requests make progress
     *  concurrently, not total parallelism. */
    unsigned dispatchers = 2;

    /** Socket connections served concurrently; excess connections are
     *  refused with an error frame. */
    std::size_t maxConnections = 64;

    /** Configs per scheduled job — the streaming granularity: a
     *  client sees results every streamTile configs, and fairness
     *  preemption points occur at the same granularity. */
    std::size_t streamTile = 16;

    /** Telemetry sink; nullptr routes to the global registry (subject
     *  to the global enable flag). An explicit sink records
     *  unconditionally — tests use this for isolated counters. */
    obs::Telemetry *telemetry = nullptr;
};

/** Snapshot of server activity (the "stats" wire op). */
struct ServeStats
{
    std::uint64_t requests = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t rejected = 0;        ///< malformed/invalid requests
    std::uint64_t queueHighWater = 0;  ///< deepest job queue seen
    std::size_t cacheEntries = 0;
    std::size_t activeConnections = 0;
};

class SweepServer
{
  public:
    explicit SweepServer(ServeOptions options);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    TraceCorpus &corpus() { return corpus_; }
    ResultCache &cache() { return cache_; }

    /**
     * Serve one request in-process — the socket layer, tests, and
     * the bench drive this directly. @p emit is called once per
     * response payload, in order (results stream as they complete);
     * returning false from @p emit stops further emission (a gone
     * client) without abandoning queued work.
     * @return false when the request was rejected (an error payload
     * was emitted).
     */
    bool execute(const WireRequest &request,
                 const std::function<bool(const std::string &)> &emit);

    /**
     * Serve one established connection until it closes: read frames,
     * execute them, stream responses. Takes ownership of @p fd
     * (closed on return). Public so tests and the protocol fuzzer can
     * drive a server through a socketpair without a listener.
     */
    void handleConnection(int fd);

    /** Listen on a Unix socket and accept in a background thread. */
    bool startUnix(const std::string &path,
                   std::string *error = nullptr);

    /** Listen on loopback TCP @p port (0 = ephemeral; @p bound_port
     *  receives the actual port). */
    bool startTcp(std::uint16_t port,
                  std::uint16_t *bound_port = nullptr,
                  std::string *error = nullptr);

    /** Block until a client issues the "shutdown" op. */
    void waitForShutdown();

    /** Stop accepting, join every connection, drain dispatchers.
     *  Idempotent; also run by the destructor. */
    void stop();

    /** True once a "shutdown" request has been accepted. */
    bool shutdownRequested() const
    {
        return shutdown_.load(std::memory_order_acquire);
    }

    /** Live socket connections (tests assert this returns to zero —
     *  no leaked slots). */
    std::size_t activeConnections() const
    {
        return active_.load(std::memory_order_acquire);
    }

    ServeStats stats();

  private:
    /** One schedulable unit: a tile of configs of one request. */
    struct Job
    {
        int priority = 0;
        std::uint64_t seq = 0;
        std::function<void()> work;
    };

    struct JobOrder
    {
        bool operator()(const Job &a, const Job &b) const
        {
            // priority_queue pops the "largest": higher priority
            // first, then earlier arrival (FIFO).
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return a.seq > b.seq;
        }
    };

    void count(const char *name, std::uint64_t delta);
    void enqueue(Job job);
    void dispatchLoop();
    void acceptLoop(int listen_fd);
    bool executeSweep(
        const WireRequest &request,
        const std::function<bool(const std::string &)> &emit);

    ServeOptions options_;
    TraceCorpus corpus_;
    ResultCache cache_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::priority_queue<Job, std::vector<Job>, JobOrder> queue_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t queueHighWater_ = 0;
    bool draining_ = false;
    std::vector<std::thread> dispatchers_;

    std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    std::vector<int> listenFds_;
    std::vector<std::thread> acceptThreads_;
    std::atomic<std::size_t> active_{0};

    std::atomic<bool> shutdown_{false};
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    std::atomic<bool> stopped_{false};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> sweeps_{0};
    std::atomic<std::uint64_t> rejected_{0};
};

/** Forwards to validateConfig (cache/cache_geometry.hh), for clients
 *  that filter configs before they build a wire request. */
std::string validateServeConfig(const CacheConfig &config);

} // namespace occsim::serve

#endif // OCCSIM_SERVE_SERVER_HH
