/**
 * @file
 * Test helpers for TraceCorpus's once-per-file-identity hash check:
 * read the global corpus.* counters, and wait until a freshly written
 * corpus file is no longer "racily verified".
 */

#ifndef OCCSIM_TESTS_CORPUS_CLOCK_HH
#define OCCSIM_TESTS_CORPUS_CLOCK_HH

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <ctime>
#include <string>

#include "obs/telemetry.hh"

/** Enables the global telemetry registry for the guard's lifetime;
 *  the corpus counters only count while it is on. */
class GlobalTelemetryOn
{
  public:
    GlobalTelemetryOn() : was_(occsim::obs::telemetryEnabled())
    {
        occsim::obs::setTelemetryEnabled(true);
    }
    ~GlobalTelemetryOn() { occsim::obs::setTelemetryEnabled(was_); }

    GlobalTelemetryOn(const GlobalTelemetryOn &) = delete;
    GlobalTelemetryOn &operator=(const GlobalTelemetryOn &) = delete;

  private:
    bool was_;
};

/** Current value of global telemetry counter @p name (0 if unseen). */
inline std::uint64_t
globalCounter(const std::string &name)
{
    for (const auto &counter : occsim::obs::telemetry().counters()) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

/**
 * Sleep until the coarse wall clock is strictly past @p path's ctime
 * (at most ~2 s). A hash pass that starts after this leaves the file
 * trusted, so the next open of the unchanged file skips the hash.
 * @return false if the file cannot be stat-ed or the clock never
 * passed its ctime.
 */
inline bool
waitPastCtime(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    const std::int64_t ctime_ns =
        static_cast<std::int64_t>(st.st_ctim.tv_sec) * 1000000000 +
        st.st_ctim.tv_nsec;
    for (int i = 0; i < 2000; ++i) {
        struct timespec now;
        ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
        if (static_cast<std::int64_t>(now.tv_sec) * 1000000000 +
                now.tv_nsec >
            ctime_ns)
            return true;
        ::usleep(1000);
    }
    return false;
}

#endif // OCCSIM_TESTS_CORPUS_CLOCK_HH
