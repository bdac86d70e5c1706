/**
 * @file
 * On-disk trace corpus: persistent, mmap-able PackedTrace storage
 * with content-hash deduplication.
 *
 * The batch/sample/shard engines already share one in-process packed
 * decode per trace (packedTraceShared); the corpus extends that
 * amortization across processes and across time. A trace is ingested
 * ONCE — packed, hashed, written to `<hash>.opc` under the corpus
 * directory — and every later request (from any process) maps the
 * file read-only and replays the records in place: no re-decode, no
 * copy, and the page cache shares the bytes between concurrent
 * servers.
 *
 * File format (occsim packed corpus, "OCPC", little-endian):
 *
 *   offset  0  char[4]  magic "OCPC"
 *   offset  4  u32      version (1)
 *   offset  8  u64      record count
 *   offset 16  u64      FNV-1a 64 content hash of the record bytes
 *   offset 24  u32      trace word size (bytes)
 *   offset 28  u32      data offset (first record; 64-aligned)
 *   offset 32  u32      trace name length
 *   offset 36  ...      zero padding to 64
 *   offset 64  char[]   trace name (not NUL-terminated)
 *   data offset         count x 8-byte PackedRecord
 *
 * The stored record bytes are exactly the bytes packedTraceShared
 * produces in memory, so an ingest -> mmap -> replay round trip is
 * bit-identical to in-memory packing by construction; the content
 * hash doubles as the dedup key and as corruption detection. Every
 * open checks the header (magic, version, size vs record count);
 * TraceCorpus re-hashes the records once per file identity (device,
 * inode, size, mtime, ctime), so a server that re-maps one trace per
 * request pays the 8-byte-per-record hash pass only when the file
 * changed. Ingest writes through a temp file + rename, so a crashed
 * ingest never leaves a half-written entry under its final name.
 */

#ifndef OCCSIM_TRACE_CORPUS_HH
#define OCCSIM_TRACE_CORPUS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/packed_trace.hh"

namespace occsim {

/** FNV-1a 64-bit hash over the raw bytes of @p count records. */
std::uint64_t packedContentHash(const PackedRecord *records,
                                std::size_t count);

/** Render @p hash as the canonical 16-digit lowercase hex id. */
std::string contentHashHex(std::uint64_t hash);

/**
 * Write @p trace to @p path in OCPC format.
 * @return true on success; on failure @p error (when non-null)
 * receives a one-line description and any partial file is removed.
 */
bool writePackedTraceFile(const std::string &path,
                          const PackedTrace &trace,
                          std::uint32_t word_size,
                          std::string *error = nullptr);

/**
 * Map an OCPC file read-only and wrap it as a PackedTrace view. The
 * header is validated (magic, version, size vs record count) and the
 * content hash is recomputed over the mapped records on every call —
 * a truncated or corrupted file is refused, never replayed.
 * @param word_size when non-null receives the stored word size.
 * @return the mapped trace, or nullptr with @p error set.
 */
std::shared_ptr<const PackedTrace>
mapPackedTraceFile(const std::string &path,
                   std::uint32_t *word_size = nullptr,
                   std::string *error = nullptr);

/** One corpus entry as listed from the directory. */
struct CorpusEntry
{
    std::string hash;        ///< canonical hex content hash
    std::string name;        ///< trace name recorded at ingest
    std::uint64_t refs = 0;  ///< record count
    std::uint32_t wordSize = 0;
};

/**
 * What fstat says of one corpus file. open() re-hashes a file's
 * records only when this differs from the identity that last passed
 * the hash check.
 */
struct FileIdentity
{
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::int64_t mtimeNs = 0;
    std::int64_t ctimeNs = 0;

    bool operator==(const FileIdentity &) const = default;
};

/**
 * Whether a file now at identity @p now may skip the hash check
 * because identity @p verified hashed clean in a pass that started at
 * @p hash_start_ns (coarse wall clock, ns). True only when the two
 * identities are equal and the file's ctime is strictly older than
 * the pass: a ctime in the same clock tick may hide a write that did
 * not move it (git's racy-clean rule).
 */
bool identityStillVerified(const FileIdentity &verified,
                           std::int64_t hash_start_ns,
                           const FileIdentity &now);

/**
 * A directory of OCPC files addressed by content hash. Thread-safe.
 * open() memoizes mappings per hash, so however many concurrent
 * requests replay one trace, it is mapped once while any handle is
 * alive. Its content hash is checked once per file identity, not once
 * per mapping: a file re-mapped after every handle dropped is only
 * header-checked, unless it changed on disk since its records last
 * hashed clean.
 */
class TraceCorpus
{
  public:
    /** @param dir corpus directory; created if missing (one level). */
    explicit TraceCorpus(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Ingest @p trace: pack, hash, and store under `<hash>.opc`. If
     * an entry with this content already exists it is left untouched
     * (dedup) — the returned hash is the same either way.
     * @return the canonical hex hash, or "" with @p error set.
     */
    std::string ingest(const VectorTrace &trace,
                       std::string *error = nullptr);

    /** Ingest an already packed trace (same contract as above). */
    std::string ingestPacked(const PackedTrace &packed,
                             std::uint32_t word_size,
                             std::string *error = nullptr);

    /**
     * Map the entry named by @p hash (canonical hex). Memoized while
     * any returned handle is alive. Each new mapping has its header
     * checked, and its stored hash must equal @p hash. The records
     * are hashed again unless this file identity already passed that
     * check with a ctime strictly older than the coarse clock read
     * just before the hash pass (so a write in the same clock tick
     * is never trusted). A failed open forgets the file's identity.
     * @return the trace, or nullptr with @p error set.
     */
    std::shared_ptr<const PackedTrace>
    open(const std::string &hash, std::string *error = nullptr);

    /** Word size stored for @p hash (0 when unknown/not yet opened
     *  or listed). */
    std::uint32_t wordSize(const std::string &hash);

    /**
     * Scan the directory and list every entry (headers only; records
     * are not validated here — open() does that).
     */
    std::vector<CorpusEntry> entries(std::string *error = nullptr);

    /**
     * Resolve @p ref — a canonical hex hash or a trace name — to a
     * hash. Name resolution scans the directory; an ambiguous name
     * (two entries, e.g. the same workload at two lengths) or an
     * unknown ref returns "" with @p error set.
     */
    std::string resolve(const std::string &ref,
                        std::string *error = nullptr);

  private:
    std::string entryPath(const std::string &hash) const;

    std::string dir_;
    std::mutex mutex_;
    /** hash -> live mapping (weak: reclaimed when unused). */
    std::unordered_map<std::string, std::weak_ptr<const PackedTrace>>
        mapped_;
    /** hash -> word size, filled by open()/entries(). */
    std::unordered_map<std::string, std::uint32_t> wordSize_;

    /** A file identity whose records hashed clean. */
    struct Verified
    {
        FileIdentity file;
        /** Coarse wall clock (ns) read just before that hash pass. */
        std::int64_t hashStartNs = 0;
    };
    /** hash -> the last identity that passed the hash check. */
    std::unordered_map<std::string, Verified> verified_;
};

} // namespace occsim

#endif // OCCSIM_TRACE_CORPUS_HH
