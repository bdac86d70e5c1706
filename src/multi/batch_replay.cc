#include "multi/batch_replay.hh"

#include <algorithm>
#include <type_traits>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

BatchReplay::BatchReplay(const std::vector<CacheConfig> &configs,
                         std::size_t tile_configs,
                         std::size_t chunk_records)
    : tileConfigs_(tile_configs), chunkRecords_(chunk_records)
{
    occsim_assert(!configs.empty(),
                  "batch replay needs at least one config");
    occsim_assert(tileConfigs_ > 0, "tile size must be positive");
    occsim_assert(chunkRecords_ > 0, "chunk size must be positive");

    caches_.reserve(configs.size());
    for (const CacheConfig &config : configs)
        caches_.push_back(std::make_unique<Cache>(config));
    numTiles_ = (caches_.size() + tileConfigs_ - 1) / tileConfigs_;
}

template <class Rec>
void
BatchReplay::runTile(std::size_t tile, const Rec *refs, std::size_t n)
{
    occsim_assert(tile < numTiles_, "tile index out of range");
    OCCSIM_TELEM_STAGE("engine.batch");
    const std::size_t begin = tile * tileConfigs_;
    const std::size_t end =
        std::min(begin + tileConfigs_, caches_.size());
    constexpr bool kPacked = std::is_same_v<Rec, PackedRecord>;
    std::vector<PackedRecord> buffer(kPacked ? 0
                                             : std::min(chunkRecords_, n));

    // Chunk-blocked: every cache of the tile consumes one chunk
    // before the next chunk is touched, keeping the chunk L2-resident
    // across the tile (a MemRef chunk is packed into the buffer once,
    // then read by every cache). Each cache still sees records
    // strictly in trace order, so its state and statistics are
    // exactly those of a solo replay.
    for (std::size_t pos = 0; pos < n; pos += chunkRecords_) {
        const std::size_t len = std::min(chunkRecords_, n - pos);
        const PackedRecord *chunk = nullptr;
        if constexpr (kPacked) {
            chunk = refs + pos;
        } else {
            for (std::size_t i = 0; i < len; ++i)
                buffer[i] = PackedRecord::pack(refs[pos + i]);
            chunk = buffer.data();
        }
        for (std::size_t c = begin; c < end; ++c)
            caches_[c]->replayPacked(chunk, len);
    }
    for (std::size_t c = begin; c < end; ++c)
        caches_[c]->finalizeResidencies();
    OCCSIM_TELEM_COUNT("engine.batch.refs",
                       n * static_cast<std::uint64_t>(end - begin));
    OCCSIM_TELEM_COUNT("engine.batch.bytes", n * sizeof(Rec));
}

template void BatchReplay::runTile(std::size_t, const MemRef *,
                                   std::size_t);
template void BatchReplay::runTile(std::size_t, const PackedRecord *,
                                   std::size_t);

std::vector<SweepResult>
BatchReplay::results() const
{
    std::vector<SweepResult> out;
    out.reserve(caches_.size());
    for (const auto &cache : caches_)
        out.push_back(summarizeCache(*cache));
    return out;
}

} // namespace occsim
