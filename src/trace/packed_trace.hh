/**
 * @file
 * Packed trace records, and record decoding for both trace layouts.
 *
 * A PackedRecord is one reference in 8 bytes: byte address in the
 * low 32 bits, pre-computed classification flags (write /
 * instruction-fetch) and the issuing core in the bits above. It
 * deliberately drops MemRef::size: no cache model reads it (the
 * data-path width comes from the config). This is the on-disk layout
 * of a corpus file (trace/corpus.hh), which replays from its mapping
 * with zero copies, and the record every Cache replay kernel reads.
 *
 * A MemRef is 8 bytes too, so the sweep engines read a VectorTrace's
 * records where they lie and never copy a whole trace: the fused
 * engine's kernel is templated on the record type (addrOf/coreOf
 * below decode either), while the tile engine's chunk filter
 * (forEachShardChunk) packs each L2-sized chunk as it streams it.
 *
 * packedTraceShared() still builds a whole packed copy of a shared
 * VectorTrace, memoized while any handle is alive, for callers that
 * want a PackedTrace (the sampled engine, tests and benches).
 */

#ifndef OCCSIM_TRACE_PACKED_TRACE_HH
#define OCCSIM_TRACE_PACKED_TRACE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
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
        // Branch-free: the tile engine packs every MemRef record it
        // streams. A write is never an ifetch, so at most one flag
        // is set.
        PackedRecord rec;
        rec.bits = static_cast<std::uint64_t>(ref.addr) |
                   (ref.isWrite() ? kWriteBit : 0) |
                   (ref.isInstruction() ? kIfetchBit : 0) |
                   ((static_cast<std::uint64_t>(ref.core) &
                     (kMaxCores - 1))
                    << kCoreShift);
        return rec;
    }
};

static_assert(sizeof(PackedRecord) == 8,
              "packed records must stay 8 bytes (one cache line holds "
              "eight of them)");
static_assert(sizeof(MemRef) == sizeof(PackedRecord),
              "a MemRef span streams the same bytes per reference as "
              "its packed form");

// Record decoding for both layouts: replay loops templated on the
// record type read MemRef spans (a VectorTrace in place) and
// PackedRecord spans (a PackedTrace or a mapped corpus file) through
// these, plus the isWrite()/isInstruction() members both types share.

inline Addr
addrOf(const MemRef &ref)
{
    return ref.addr;
}

inline Addr
addrOf(const PackedRecord &rec)
{
    return rec.addr();
}

inline std::uint32_t
coreOf(const MemRef &ref)
{
    return ref.core;
}

inline std::uint32_t
coreOf(const PackedRecord &rec)
{
    return rec.core();
}

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
 * given VectorTrace decodes it, and later calls return the same
 * PackedTrace while a handle returned earlier is still alive. The
 * memo holds the copy weakly: once the last handle is dropped the
 * copy is freed, however long the source trace lives, and the next
 * call packs again. Thread-safe.
 */
std::shared_ptr<const PackedTrace>
packedTraceShared(const std::shared_ptr<const VectorTrace> &trace);

/** Records per chunk of a tile or shard filter: 32768 x 8 B = 256 KB
 *  of trace read and at most as much written into the filter's one
 *  chunk buffer, all L2-resident. */
inline constexpr std::size_t kShardChunkRecords = 32768;

/** The records a filter keeps by reference kind: all of them (a
 *  unified cache's stream), or one side of a split I/D pair. */
enum class RefStream : std::uint8_t { All, Ifetch, Data };

/** True when @p stream keeps record @p rec (a MemRef or a
 *  PackedRecord). */
template <class Rec>
bool
inStream(const Rec &rec, RefStream stream)
{
    return stream == RefStream::All ||
           rec.isInstruction() == (stream == RefStream::Ifetch);
}

/**
 * Stream set shard @p shard of the @p stream records among the first
 * @p n of @p refs into @p sink: record r belongs to shard
 * (addrOf(r) >> blockBits) & (2^shardBits - 1). @p refs is a MemRef
 * or a PackedRecord span; either way the sink receives packed records.
 *
 * For any set-associative geometry with the same block size and
 * numSets >= 2^shardBits, the set index is (addr >> blockBits) mod
 * numSets, so every record of one shard maps to a set congruent to
 * that shard's index — sets are partitioned across shards and one
 * filter serves every such config. The kind test selects one side of
 * a split I/D pair: each half is a unified cache fed only its kind.
 *
 * The records are scanned @p chunk_records at a time; a branchless
 * compaction copies each chunk's kept records, byte for byte, into
 * one PackedRecord buffer private to this call, and every non-empty
 * buffer goes to sink(const PackedRecord *, std::size_t). Compacted
 * MemRef records are then packed in place, so only the kept share of
 * a chunk pays for the pack. The sink sees its records in trace
 * order, which is all a set-local engine observes. No copy of the
 * trace is made: each call reads all @p n records. Whether the kind
 * is tested is decided once per chunk, outside the per-record loop.
 *
 * At 0 shard bits (one shard) on the All stream the filter is the
 * identity: a PackedRecord chunk goes to the sink in place, and a
 * MemRef chunk is packed once into the call's buffer.
 * @return records passed to @p sink.
 */
template <class Rec, class Sink>
std::uint64_t
forEachShardChunk(const Rec *refs, std::size_t n,
                  std::uint32_t block_bits, std::uint32_t shard_bits,
                  std::uint32_t shard, Sink &&sink,
                  std::size_t chunk_records = kShardChunkRecords,
                  RefStream stream = RefStream::All)
{
    constexpr bool kPacked = std::is_same_v<Rec, PackedRecord>;
    static_assert(sizeof(Rec) == sizeof(PackedRecord));
    const std::uint64_t mask = (std::uint64_t{1} << shard_bits) - 1;
    const bool by_kind = stream != RefStream::All;
    const bool ifetch = stream == RefStream::Ifetch;
    const bool identity = shard_bits == 0 && !by_kind;
    std::vector<PackedRecord> buffer(
        identity && kPacked ? 0 : std::min(chunk_records, n));
    std::uint64_t kept = 0;
    for (std::size_t pos = 0; pos < n; pos += chunk_records) {
        const std::size_t len = std::min(chunk_records, n - pos);
        const Rec *chunk = refs + pos;
        if (identity) {
            if constexpr (kPacked) {
                sink(chunk, len);
            } else {
                for (std::size_t i = 0; i < len; ++i)
                    buffer[i] = PackedRecord::pack(chunk[i]);
                sink(buffer.data(), len);
            }
            kept += len;
            continue;
        }
        // Every record is written, still in its own layout; only a
        // kept record advances the cursor, which never passes the read
        // index. The kind test is compiled in or out per chunk.
        const auto compact = [=, dst = buffer.data()](auto by_kind_tag) {
            std::size_t out = 0;
            for (std::size_t i = 0; i < len; ++i) {
                const Rec rec = chunk[i];
                std::memcpy(&dst[out].bits, &rec, sizeof rec);
                bool keep = ((addrOf(rec) >> block_bits) & mask) == shard;
                if constexpr (decltype(by_kind_tag)::value)
                    keep = keep & (rec.isInstruction() == ifetch);
                out += keep;
            }
            return out;
        };
        const std::size_t out = by_kind ? compact(std::true_type{})
                                        : compact(std::false_type{});
        if constexpr (!kPacked) {
            for (std::size_t i = 0; i < out; ++i) {
                buffer[i] =
                    PackedRecord::pack(std::bit_cast<MemRef>(buffer[i]));
            }
        }
        if (out > 0)
            sink(buffer.data(), out);
        kept += out;
    }
    return kept;
}

} // namespace occsim

#endif // OCCSIM_TRACE_PACKED_TRACE_HH
