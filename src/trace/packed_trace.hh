/**
 * @file
 * Packed, pre-decoded trace representation for batched replay.
 *
 * A VectorTrace stores MemRef structs and is consumed either through
 * the virtual TraceSource::next() interface or as a flat MemRef span.
 * The batched replay engine wants neither: it replays the same trace
 * through many cache configurations and kernels, so the trace is
 * decoded ONCE into a contiguous array of 8-byte records — byte
 * address in the low 32 bits, pre-computed classification flags
 * (write / instruction-fetch) in the bits above — and every kernel
 * loop is a branch-light walk over that span. The record deliberately
 * drops MemRef::size: no cache model reads it (the data-path width
 * comes from the config), and keeping records at 8 bytes means a
 * 1 M-reference trace is an 8 MB stream that tiles nicely in L2.
 *
 * packedTraceShared() memoizes the packing per shared immutable
 * VectorTrace, mirroring buildTraceShared: however many sweeps replay
 * one trace, it is decoded exactly once while any handle is alive.
 */

#ifndef OCCSIM_TRACE_PACKED_TRACE_HH
#define OCCSIM_TRACE_PACKED_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace occsim {

/** One pre-decoded reference: address + classification flags. */
struct PackedRecord
{
    /** Bit positions of the flag field (above the 32 address bits). */
    static constexpr std::uint64_t kWriteBit = 1ull << 32;
    static constexpr std::uint64_t kIfetchBit = 1ull << 33;
    /** Issuing core (coherency scenarios): 3 bits above the flags,
     *  capping scenarios at kMaxCores caches on one bus. Single-cache
     *  traces pack core 0, so every pre-existing corpus file decodes
     *  unchanged. */
    static constexpr std::uint32_t kCoreShift = 34;
    static constexpr std::uint64_t kCoreMask = 0x7ull << kCoreShift;
    static constexpr std::uint32_t kMaxCores = 8;

    std::uint64_t bits = 0;

    Addr addr() const { return static_cast<Addr>(bits); }
    bool isWrite() const { return (bits & kWriteBit) != 0; }
    bool isInstruction() const { return (bits & kIfetchBit) != 0; }
    std::uint32_t core() const
    {
        return static_cast<std::uint32_t>((bits & kCoreMask) >>
                                          kCoreShift);
    }

    static PackedRecord pack(const MemRef &ref)
    {
        PackedRecord rec;
        rec.bits = static_cast<std::uint64_t>(ref.addr);
        if (ref.isWrite())
            rec.bits |= kWriteBit;
        else if (ref.isInstruction())
            rec.bits |= kIfetchBit;
        rec.bits |= (static_cast<std::uint64_t>(ref.core) &
                     (kMaxCores - 1))
                    << kCoreShift;
        return rec;
    }
};

static_assert(sizeof(PackedRecord) == 8,
              "packed records must stay 8 bytes (one cache line holds "
              "eight of them)");

/**
 * An immutable packed trace: one contiguous span of records. The
 * records are either owned (decoded from a VectorTrace) or a view
 * over externally held memory — an mmapped corpus file
 * (trace/corpus.hh) replays through exactly the same span interface
 * with zero copies.
 */
class PackedTrace
{
  public:
    PackedTrace() = default;
    explicit PackedTrace(const VectorTrace &trace);

    /**
     * View over @p count externally owned records; @p backing keeps
     * the storage (e.g. a file mapping) alive for the trace's
     * lifetime. The records are NOT copied.
     */
    PackedTrace(std::string name, const PackedRecord *records,
                std::size_t count, std::shared_ptr<const void> backing);

    // The span pointer would dangle across a copy of the owned case;
    // packed traces are shared by shared_ptr, never copied.
    PackedTrace(const PackedTrace &) = delete;
    PackedTrace &operator=(const PackedTrace &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const PackedRecord *data() const { return data_; }
    const PackedRecord &operator[](std::size_t i) const
    {
        return data_[i];
    }
    const std::string &name() const { return name_; }

  private:
    std::string name_ = "trace";
    std::vector<PackedRecord> records_;  ///< owned storage (or empty)
    std::shared_ptr<const void> backing_;  ///< view keep-alive
    const PackedRecord *data_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * Memoized packing of a shared immutable trace: the first call for a
 * given VectorTrace decodes it, later calls return the same
 * PackedTrace as long as any previous handle (or the source trace)
 * is still alive. Thread-safe.
 */
std::shared_ptr<const PackedTrace>
packedTraceShared(const std::shared_ptr<const VectorTrace> &trace);

/** Records a shard filter compacts per chunk: 16384 x 8 B = 128 KB
 *  of trace read and at most as much written, both L2-resident. */
inline constexpr std::size_t kShardChunkRecords = 16384;

/**
 * Stream set shard @p shard of the first @p n records of @p refs into
 * @p sink: record r belongs to shard
 * (r.addr() >> blockBits) & (2^shardBits - 1).
 *
 * For any set-associative geometry with the same block size and
 * numSets >= 2^shardBits, the set index is (addr >> blockBits) mod
 * numSets, so every record of one shard maps to a set congruent to
 * that shard's index — sets are partitioned across shards and one
 * filter serves every such config.
 *
 * The records are scanned @p chunk_records at a time; a branchless
 * compaction copies each chunk's shard records into a buffer private
 * to this call, and every non-empty buffer goes to
 * sink(const PackedRecord *, std::size_t). The sink sees the shard's
 * records in trace order, which is all a set-local engine observes.
 * No copy of the trace is made: each call reads all @p n records.
 * @return records passed to @p sink.
 */
template <class Sink>
std::uint64_t
forEachShardChunk(const PackedRecord *refs, std::size_t n,
                  std::uint32_t block_bits, std::uint32_t shard_bits,
                  std::uint32_t shard, Sink &&sink,
                  std::size_t chunk_records = kShardChunkRecords)
{
    const std::uint64_t mask = (std::uint64_t{1} << shard_bits) - 1;
    std::vector<PackedRecord> buffer(std::min(chunk_records, n));
    std::uint64_t kept = 0;
    for (std::size_t pos = 0; pos < n; pos += chunk_records) {
        const std::size_t len = std::min(chunk_records, n - pos);
        // Every record is written; only a shard record advances the
        // cursor, which never passes the read index.
        std::size_t out = 0;
        for (std::size_t i = 0; i < len; ++i) {
            const PackedRecord rec = refs[pos + i];
            buffer[out] = rec;
            out += ((rec.addr() >> block_bits) & mask) == shard;
        }
        if (out > 0)
            sink(buffer.data(), out);
        kept += out;
    }
    return kept;
}

} // namespace occsim

#endif // OCCSIM_TRACE_PACKED_TRACE_HH
