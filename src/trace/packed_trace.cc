#include "trace/packed_trace.hh"

#include <mutex>
#include <unordered_map>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

PackedTrace::PackedTrace(const VectorTrace &trace) : name_(trace.name())
{
    records_.reserve(trace.size());
    for (const MemRef &ref : trace.refs())
        records_.push_back(PackedRecord::pack(ref));
    data_ = records_.data();
    size_ = records_.size();
}

PackedTrace::PackedTrace(std::string name, const PackedRecord *records,
                         std::size_t count,
                         std::shared_ptr<const void> backing)
    : name_(std::move(name)), backing_(std::move(backing)),
      data_(records), size_(count)
{
    occsim_assert(records != nullptr || count == 0,
                  "null record span of %zu records", count);
}

namespace {

/**
 * Memo cache keyed by the source trace's address. The source weak_ptr
 * is the validity token: a dead (or recycled-address) trace never
 * matches, so a stale entry can only miss, not alias. Packed traces
 * are held weakly too — memory is reclaimed as soon as the last sweep
 * drops its handle.
 */
struct PackedEntry
{
    std::weak_ptr<const VectorTrace> source;
    std::weak_ptr<const PackedTrace> packed;
};

std::mutex packed_mutex;
std::unordered_map<const VectorTrace *, PackedEntry> packed_cache;

} // namespace

std::shared_ptr<const PackedTrace>
packedTraceShared(const std::shared_ptr<const VectorTrace> &trace)
{
    occsim_assert(trace != nullptr, "null trace");
    std::lock_guard<std::mutex> lock(packed_mutex);

    const auto it = packed_cache.find(trace.get());
    if (it != packed_cache.end() &&
        it->second.source.lock() == trace) {
        if (auto packed = it->second.packed.lock())
            return packed;
    }

    // Keep the map from accumulating tombstones across many
    // short-lived traces.
    if (packed_cache.size() >= 64) {
        for (auto e = packed_cache.begin(); e != packed_cache.end();) {
            if (e->second.packed.expired())
                e = packed_cache.erase(e);
            else
                ++e;
        }
    }

    OCCSIM_TELEM_STAGE("trace.pack");
    auto packed = std::make_shared<const PackedTrace>(*trace);
    packed_cache[trace.get()] = PackedEntry{trace, packed};
    OCCSIM_TELEM_COUNT("trace.pack.refs", packed->size());
    return packed;
}

} // namespace occsim
