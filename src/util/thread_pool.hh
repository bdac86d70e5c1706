/**
 * @file
 * A small fixed-size thread pool for the parallel sweep engine.
 *
 * The simulation workload is embarrassingly parallel — every cache
 * configuration is independent and traces are shared read-only — so
 * the pool only needs fire-and-forget tasks plus a dynamically
 * scheduled parallelFor. A pool of size 1 degenerates to fully
 * sequential inline execution (no worker thread is spawned), which is
 * the OCCSIM_THREADS=1 escape hatch: identical control flow to the
 * historical single-threaded engine.
 */

#ifndef OCCSIM_UTIL_THREAD_POOL_HH
#define OCCSIM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace occsim {

/**
 * Worker count used when a pool is constructed with 0 threads: the
 * OCCSIM_THREADS environment variable (validated; positive integers
 * only), or std::thread::hardware_concurrency() when unset.
 */
unsigned configuredThreadCount();

/**
 * The parallelism the machine can actually deliver to this process:
 * the CPU-affinity mask population when the OS exposes one (a
 * container pinned to one core reports 1 here even when
 * hardware_concurrency() sees the whole host), falling back to
 * std::thread::hardware_concurrency(), then to OCCSIM_THREADS, then
 * to 1. The scaling benchmarks use this to decide whether their
 * speedup gates are meaningful rather than silently failing on
 * core-starved CI runners.
 */
unsigned effectiveHardwareThreads();

/** Fixed-size thread pool with exception propagation. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means configuredThreadCount(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of workers (>= 1). Size 1 means inline execution. */
    unsigned size() const { return threads_; }

    /**
     * Enqueue @p task. The returned future rethrows any exception the
     * task raised. A size-1 pool runs the task inline before
     * returning.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Run @p body(i) for every i in [0, n), distributing indices
     * dynamically across the workers plus the calling thread. Blocks
     * until all iterations finish; rethrows the first exception (the
     * remaining iterations are abandoned). On a size-1 pool this is a
     * plain sequential loop in index order.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/**
 * The process-wide pool used by the parallel sweep engine when no
 * explicit pool is given. Sized by configuredThreadCount() on first
 * use.
 */
ThreadPool &globalThreadPool();

/** @p pool, or globalThreadPool() when it is null. */
inline ThreadPool &
poolOrGlobal(ThreadPool *pool)
{
    return pool != nullptr ? *pool : globalThreadPool();
}

} // namespace occsim

#endif // OCCSIM_UTIL_THREAD_POOL_HH
