#include "trace/corpus.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

namespace {

constexpr char kMagic[4] = {'O', 'C', 'P', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderBytes = 64;
constexpr const char *kEntrySuffix = ".opc";
/** Refuse absurd name fields before allocating for them. */
constexpr std::uint32_t kMaxNameLen = 4096;

/** Fixed-layout file header; all fields little-endian. */
struct FileHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t recordCount;
    std::uint64_t contentHash;
    std::uint32_t wordSize;
    std::uint32_t dataOffset;
    std::uint32_t nameLen;
    char pad[kHeaderBytes - 36];
};

static_assert(sizeof(FileHeader) == kHeaderBytes,
              "OCPC header must be exactly 64 bytes");

void setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

std::uint32_t alignUp64(std::uint32_t n)
{
    return (n + 63u) & ~63u;
}

/**
 * Validate @p header against the file's byte size. Returns "" when
 * the header is coherent, else a one-line reason.
 */
std::string checkHeader(const FileHeader &header, std::uint64_t file_size)
{
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        return "bad magic (not an OCPC corpus file)";
    if (header.version != kVersion)
        return strfmt("unsupported OCPC version %u (want %u)",
                      header.version, kVersion);
    if (header.nameLen > kMaxNameLen)
        return strfmt("implausible name length %u", header.nameLen);
    if (header.dataOffset < kHeaderBytes + header.nameLen ||
        header.dataOffset % alignof(PackedRecord) != 0)
        return strfmt("bad data offset %u", header.dataOffset);
    const std::uint64_t need =
        header.dataOffset + header.recordCount * sizeof(PackedRecord);
    if (file_size < need)
        return strfmt("truncated: %llu bytes on disk, header promises "
                      "%llu",
                      static_cast<unsigned long long>(file_size),
                      static_cast<unsigned long long>(need));
    return "";
}

/** Read @p header from @p path. Returns "" or a reason. */
std::string readHeader(const std::string &path, FileHeader *header,
                       std::uint64_t *file_size)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return strfmt("open failed: %s", std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return strfmt("fstat failed: %s", std::strerror(err));
    }
    if (static_cast<std::uint64_t>(st.st_size) < kHeaderBytes) {
        ::close(fd);
        return strfmt("file too small for a header (%lld bytes)",
                      static_cast<long long>(st.st_size));
    }
    const ssize_t got = ::pread(fd, header, sizeof(*header), 0);
    ::close(fd);
    if (got != static_cast<ssize_t>(sizeof(*header)))
        return "short header read";
    *file_size = static_cast<std::uint64_t>(st.st_size);
    return checkHeader(*header, *file_size);
}

/** Holds one read-only file mapping; unmapped on destruction. */
struct Mapping
{
    void *base = MAP_FAILED;
    std::size_t bytes = 0;

    ~Mapping()
    {
        if (base != MAP_FAILED)
            ::munmap(base, bytes);
    }
};

bool writeAll(int fd, const void *data, std::size_t bytes)
{
    const char *p = static_cast<const char *>(data);
    while (bytes > 0) {
        const ssize_t put = ::write(fd, p, bytes);
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

std::int64_t toNs(const struct timespec &ts)
{
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

/**
 * The coarse wall clock, in ns. Never ahead of the clock the kernel
 * stamps ctime from, so a file changed after this read carries a
 * ctime no older than it.
 */
std::int64_t coarseNowNs()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME_COARSE, &ts);
    return toNs(ts);
}

/** One OCPC file, mapped read-only with its header checked. */
struct MappedFile
{
    std::shared_ptr<Mapping> mapping;
    FileHeader header{};
    FileIdentity identity;  ///< from the fstat of the mapped fd

    const PackedRecord *records() const
    {
        return reinterpret_cast<const PackedRecord *>(
            static_cast<const char *>(mapping->base) +
            header.dataOffset);
    }
};

/**
 * Open, fstat, map and header-check @p path into @p file. The
 * identity comes from the same fd that is mapped, so it describes
 * the bytes the mapping sees, not a file swapped in since.
 * @return "" or a one-line reason naming the path.
 */
std::string mapFile(const std::string &path, MappedFile &file)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return strfmt("cannot open %s: %s", path.c_str(),
                      std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return strfmt("fstat %s failed: %s", path.c_str(),
                      std::strerror(err));
    }
    const std::uint64_t file_size =
        static_cast<std::uint64_t>(st.st_size);
    if (file_size < kHeaderBytes) {
        ::close(fd);
        return strfmt("%s: file too small for a header (%llu bytes)",
                      path.c_str(),
                      static_cast<unsigned long long>(file_size));
    }
    file.identity = FileIdentity{static_cast<std::uint64_t>(st.st_dev),
                                 static_cast<std::uint64_t>(st.st_ino),
                                 file_size, toNs(st.st_mtim),
                                 toNs(st.st_ctim)};

    file.mapping = std::make_shared<Mapping>();
    file.mapping->bytes = static_cast<std::size_t>(file_size);
    file.mapping->base = ::mmap(nullptr, file.mapping->bytes, PROT_READ,
                                MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);  // the mapping keeps the file referenced
    if (file.mapping->base == MAP_FAILED)
        return strfmt("mmap %s failed: %s", path.c_str(),
                      std::strerror(map_err));

    std::memcpy(&file.header, file.mapping->base, sizeof(file.header));
    const std::string reason = checkHeader(file.header, file_size);
    return reason.empty() ? ""
                          : strfmt("%s: %s", path.c_str(), reason.c_str());
}

/**
 * Recompute the content hash over @p file's mapped records: flipped
 * record bits are refused here, not discovered as a silently wrong
 * miss ratio later. @return "" or a reason naming @p path.
 */
std::string checkContentHash(const std::string &path,
                             const MappedFile &file)
{
    OCCSIM_TELEM_COUNT("corpus.verify.refs", file.header.recordCount);
    const std::uint64_t hash = packedContentHash(
        file.records(), static_cast<std::size_t>(file.header.recordCount));
    if (hash == file.header.contentHash)
        return "";
    return strfmt("%s: content hash mismatch (stored %s, computed %s) "
                  "— corrupted records",
                  path.c_str(),
                  contentHashHex(file.header.contentHash).c_str(),
                  contentHashHex(hash).c_str());
}

/** Wrap @p file's records as a PackedTrace that owns the mapping. */
std::shared_ptr<const PackedTrace> wrapMapped(MappedFile &file)
{
    std::string name(
        static_cast<const char *>(file.mapping->base) + kHeaderBytes,
        file.header.nameLen);
    OCCSIM_TELEM_COUNT("corpus.map.refs", file.header.recordCount);
    return std::make_shared<const PackedTrace>(
        std::move(name), file.records(),
        static_cast<std::size_t>(file.header.recordCount),
        std::move(file.mapping));
}

} // namespace

std::uint64_t
packedContentHash(const PackedRecord *records, std::size_t count)
{
    // FNV-1a 64 over the raw record bytes. Not cryptographic — the
    // corpus defends against corruption and accidental collision, not
    // adversarial traces.
    std::uint64_t hash = 1469598103934665603ull;
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(records);
    const std::size_t total = count * sizeof(PackedRecord);
    for (std::size_t i = 0; i < total; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

bool
identityStillVerified(const FileIdentity &verified,
                      std::int64_t hash_start_ns, const FileIdentity &now)
{
    return now == verified && now.ctimeNs < hash_start_ns;
}

std::string contentHashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
writePackedTraceFile(const std::string &path, const PackedTrace &trace,
                     std::uint32_t word_size, std::string *error)
{
    FileHeader header;
    std::memset(&header, 0, sizeof(header));
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.recordCount = trace.size();
    header.contentHash = packedContentHash(trace.data(), trace.size());
    header.wordSize = word_size;
    header.nameLen = static_cast<std::uint32_t>(
        std::min<std::size_t>(trace.name().size(), kMaxNameLen));
    header.dataOffset = alignUp64(kHeaderBytes + header.nameLen);

    // Write through a temp name and rename into place: a crash mid
    // write can strand a .tmp file but never a half-written entry
    // under the final name.
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, strfmt("cannot create %s: %s", tmp.c_str(),
                               std::strerror(errno)));
        return false;
    }

    const std::vector<char> gap(header.dataOffset - kHeaderBytes -
                                    header.nameLen,
                                '\0');
    bool ok = writeAll(fd, &header, sizeof(header)) &&
              writeAll(fd, trace.name().data(), header.nameLen) &&
              (gap.empty() || writeAll(fd, gap.data(), gap.size())) &&
              (trace.empty() ||
               writeAll(fd, trace.data(),
                        trace.size() * sizeof(PackedRecord)));
    if (ok && ::fsync(fd) != 0)
        ok = false;
    const int write_err = errno;
    ::close(fd);

    if (!ok) {
        ::unlink(tmp.c_str());
        setError(error, strfmt("write to %s failed: %s", tmp.c_str(),
                               std::strerror(write_err)));
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        setError(error, strfmt("rename to %s failed: %s", path.c_str(),
                               std::strerror(err)));
        return false;
    }
    return true;
}

std::shared_ptr<const PackedTrace>
mapPackedTraceFile(const std::string &path, std::uint32_t *word_size,
                   std::string *error)
{
    MappedFile file;
    std::string reason = mapFile(path, file);
    if (reason.empty())
        reason = checkContentHash(path, file);
    if (!reason.empty()) {
        setError(error, std::move(reason));
        return nullptr;
    }
    if (word_size)
        *word_size = file.header.wordSize;
    return wrapMapped(file);
}

TraceCorpus::TraceCorpus(std::string dir) : dir_(std::move(dir))
{
    occsim_assert(!dir_.empty(), "empty corpus directory");
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create corpus directory %s: %s", dir_.c_str(),
              std::strerror(errno));
}

std::string
TraceCorpus::entryPath(const std::string &hash) const
{
    return dir_ + "/" + hash + kEntrySuffix;
}

std::string
TraceCorpus::ingest(const VectorTrace &trace, std::string *error)
{
    const PackedTrace packed(trace);
    // Every reference in a trace moves one data-path word, so the
    // first record's size field is the trace's word size.
    const std::uint32_t word_size = trace.empty() ? 0 : trace[0].size;
    return ingestPacked(packed, word_size, error);
}

std::string
TraceCorpus::ingestPacked(const PackedTrace &packed,
                          std::uint32_t word_size, std::string *error)
{
    const std::uint64_t hash =
        packedContentHash(packed.data(), packed.size());
    const std::string hex = contentHashHex(hash);
    const std::string path = entryPath(hex);

    std::lock_guard<std::mutex> lock(mutex_);

    // Dedup: if a valid entry with this content hash already exists,
    // the bytes are already on disk — skip the write entirely.
    FileHeader header;
    std::uint64_t file_size = 0;
    if (readHeader(path, &header, &file_size).empty() &&
        header.contentHash == hash &&
        header.recordCount == packed.size()) {
        OCCSIM_TELEM_COUNT("corpus.ingest.dedup", 1);
        wordSize_[hex] = header.wordSize;
        return hex;
    }

    OCCSIM_TELEM_STAGE("corpus.ingest");
    if (!writePackedTraceFile(path, packed, word_size, error))
        return "";
    OCCSIM_TELEM_COUNT("corpus.ingest.refs", packed.size());
    wordSize_[hex] = word_size;
    return hex;
}

std::shared_ptr<const PackedTrace>
TraceCorpus::open(const std::string &hash, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);

    const auto it = mapped_.find(hash);
    if (it != mapped_.end()) {
        if (auto trace = it->second.lock())
            return trace;
    }

    const std::string path = entryPath(hash);
    MappedFile file;
    std::string reason = mapFile(path, file);
    if (reason.empty() && contentHashHex(file.header.contentHash) != hash)
        reason = strfmt("%s: header names content hash %s, not the "
                        "requested %s",
                        path.c_str(),
                        contentHashHex(file.header.contentHash).c_str(),
                        hash.c_str());
    // Hash the records only when this file identity has not passed
    // the check before, or passed it racily.
    const auto known = verified_.find(hash);
    const bool trusted =
        known != verified_.end() &&
        identityStillVerified(known->second.file,
                              known->second.hashStartNs, file.identity);
    if (reason.empty() && !trusted) {
        const std::int64_t start = coarseNowNs();
        reason = checkContentHash(path, file);
        if (reason.empty())
            verified_[hash] = Verified{file.identity, start};
    }
    if (!reason.empty()) {
        verified_.erase(hash);
        setError(error, std::move(reason));
        return nullptr;
    }

    auto trace = wrapMapped(file);
    mapped_[hash] = trace;
    wordSize_[hash] = file.header.wordSize;

    // Sweep dead mappings so a long-lived server's map stays bounded
    // by the live set, not by history.
    if (mapped_.size() >= 64) {
        for (auto e = mapped_.begin(); e != mapped_.end();) {
            if (e->second.expired())
                e = mapped_.erase(e);
            else
                ++e;
        }
    }
    return trace;
}

std::uint32_t
TraceCorpus::wordSize(const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = wordSize_.find(hash);
    return it == wordSize_.end() ? 0 : it->second;
}

std::vector<CorpusEntry>
TraceCorpus::entries(std::string *error)
{
    std::vector<CorpusEntry> result;
    DIR *dir = ::opendir(dir_.c_str());
    if (!dir) {
        setError(error, strfmt("cannot list %s: %s", dir_.c_str(),
                               std::strerror(errno)));
        return result;
    }
    while (const struct dirent *ent = ::readdir(dir)) {
        const std::string file = ent->d_name;
        const std::size_t suffix_len = std::strlen(kEntrySuffix);
        if (file.size() <= suffix_len ||
            file.compare(file.size() - suffix_len, suffix_len,
                         kEntrySuffix) != 0)
            continue;

        const std::string path = dir_ + "/" + file;
        FileHeader header;
        std::uint64_t file_size = 0;
        const std::string reason =
            readHeader(path, &header, &file_size);
        if (!reason.empty()) {
            warn("corpus: skipping %s: %s", path.c_str(),
                 reason.c_str());
            continue;
        }

        CorpusEntry entry;
        entry.hash = contentHashHex(header.contentHash);
        entry.refs = header.recordCount;
        entry.wordSize = header.wordSize;
        if (header.nameLen > 0) {
            entry.name.resize(header.nameLen);
            const int fd = ::open(path.c_str(), O_RDONLY);
            if (fd >= 0) {
                const ssize_t got =
                    ::pread(fd, entry.name.data(), header.nameLen,
                            kHeaderBytes);
                ::close(fd);
                if (got != static_cast<ssize_t>(header.nameLen))
                    entry.name.clear();
            }
        }
        result.push_back(std::move(entry));
    }
    ::closedir(dir);

    std::sort(result.begin(), result.end(),
              [](const CorpusEntry &a, const CorpusEntry &b) {
                  return a.hash < b.hash;
              });
    std::lock_guard<std::mutex> lock(mutex_);
    for (const CorpusEntry &entry : result)
        wordSize_[entry.hash] = entry.wordSize;
    return result;
}

std::string
TraceCorpus::resolve(const std::string &ref, std::string *error)
{
    // A canonical hash resolves directly when the entry exists.
    if (ref.size() == 16 &&
        ref.find_first_not_of("0123456789abcdef") == std::string::npos) {
        struct stat st;
        if (::stat(entryPath(ref).c_str(), &st) == 0)
            return ref;
    }

    std::string list_error;
    const std::vector<CorpusEntry> all = entries(&list_error);
    if (!list_error.empty()) {
        setError(error, list_error);
        return "";
    }

    std::string match;
    for (const CorpusEntry &entry : all) {
        if (entry.name != ref)
            continue;
        if (!match.empty()) {
            setError(error,
                     strfmt("trace name '%s' is ambiguous (%s and %s "
                            "both match); use the hash",
                            ref.c_str(), match.c_str(),
                            entry.hash.c_str()));
            return "";
        }
        match = entry.hash;
    }
    if (match.empty())
        setError(error, strfmt("no corpus entry named '%s' in %s",
                               ref.c_str(), dir_.c_str()));
    return match;
}

} // namespace occsim
