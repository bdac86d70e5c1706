/**
 * @file
 * The on-disk trace corpus contract (trace/corpus.hh): an ingest →
 * mmap → replay round trip must be bit-identical to in-memory packing
 * (the OCPC bytes ARE packedTraceShared's bytes); duplicate content
 * must be stored once and addressed by one hash; a corrupted or
 * truncated file must be refused with a clear error, never replayed;
 * the records are hashed once per file identity, yet any change to the
 * file after a verified open is caught; and runSweep's packedTraces
 * path over mapped corpus entries must be bit-identical to the
 * ordinary VectorTrace path for the same grid.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "trace/corpus.hh"
#include "trace/packed_trace.hh"
#include "workload/suites.hh"

#include "corpus_clock.hh"
#include "sweep_expect.hh"

using namespace occsim;

namespace {

constexpr std::uint64_t kRefs = 30000;
/** A byte deep in the record region of a kRefs-record entry. */
constexpr std::size_t kRecordByte = 64 + 1024 * sizeof(PackedRecord) + 3;

/** A fresh corpus directory per test, removed on teardown. */
class CorpusTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char pattern[] = "/tmp/occsim_corpus_XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        dir_ = pattern;
    }

    void TearDown() override
    {
        // Best-effort removal; the files are tiny.
        const std::string cmd = "rm -rf " + dir_;
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    /** Count regular files under the corpus directory. */
    std::size_t fileCount()
    {
        TraceCorpus corpus(dir_);
        return corpus.entries().size();
    }

    std::string entryPath(const std::string &hash) const
    {
        return dir_ + "/" + hash + ".opc";
    }

    /**
     * Open @p hash once with its records hashed and trusted from then
     * on (its ctime is strictly older than the hash pass), then drop
     * the handle so the next open maps the file again.
     */
    void verifiedOpen(TraceCorpus &corpus, const std::string &hash,
                      std::uint64_t refs)
    {
        ASSERT_TRUE(waitPastCtime(entryPath(hash)));
        const std::uint64_t before = globalCounter("corpus.verify.refs");
        std::string error;
        ASSERT_NE(corpus.open(hash, &error), nullptr) << error;
        ASSERT_EQ(globalCounter("corpus.verify.refs") - before, refs);
    }

    std::string dir_;
};

std::shared_ptr<const VectorTrace>
suiteTrace(std::size_t index)
{
    return buildTraceShared(pdp11Suite().traces.at(index), kRefs);
}

/** Flip one byte in the middle of a file's record region. */
void
corruptFile(const std::string &path, std::size_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

} // namespace

TEST_F(CorpusTest, IngestMapRoundTripIsBitIdentical)
{
    const auto trace = suiteTrace(0);
    const auto packed = packedTraceShared(trace);

    TraceCorpus corpus(dir_);
    std::string error;
    const std::string hash = corpus.ingest(*trace, &error);
    ASSERT_FALSE(hash.empty()) << error;
    EXPECT_EQ(hash,
              contentHashHex(
                  packedContentHash(packed->data(), packed->size())));

    std::uint32_t word_size = corpus.wordSize(hash);
    EXPECT_EQ(word_size, pdp11Suite().profile.wordSize);

    const auto mapped = corpus.open(hash, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_EQ(mapped->size(), packed->size());
    EXPECT_EQ(mapped->name(), trace->name());
    // The mapped records must be byte-for-byte the in-memory packing.
    EXPECT_EQ(std::memcmp(mapped->data(), packed->data(),
                          packed->size() * sizeof(PackedRecord)),
              0);
}

TEST_F(CorpusTest, OpenIsMemoizedWhileAlive)
{
    const auto trace = suiteTrace(0);
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*trace);
    ASSERT_FALSE(hash.empty());

    const auto first = corpus.open(hash);
    const auto second = corpus.open(hash);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
}

TEST_F(CorpusTest, DuplicateContentIsStoredOnce)
{
    const auto trace = suiteTrace(0);
    TraceCorpus corpus(dir_);
    const std::string first = corpus.ingest(*trace);
    const std::string second = corpus.ingest(*trace);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_EQ(fileCount(), 1u);

    // Different content gets its own entry.
    const std::string other = corpus.ingest(*suiteTrace(1));
    ASSERT_FALSE(other.empty());
    EXPECT_NE(other, first);
    EXPECT_EQ(fileCount(), 2u);
}

TEST_F(CorpusTest, CorruptedRecordsAreRefused)
{
    const auto trace = suiteTrace(0);
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*trace);
    ASSERT_FALSE(hash.empty());
    const std::string path = dir_ + "/" + hash + ".opc";

    // Flip a bit deep in the record region: the stored header hash no
    // longer matches the bytes, so open must refuse.
    corruptFile(path, kRecordByte);
    std::string error;
    EXPECT_EQ(corpus.open(hash, &error), nullptr);
    EXPECT_NE(error.find("hash"), std::string::npos) << error;
}

TEST_F(CorpusTest, TruncatedFileIsRefused)
{
    const auto trace = suiteTrace(0);
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*trace);
    ASSERT_FALSE(hash.empty());
    const std::string path = dir_ + "/" + hash + ".opc";

    // Cut the file off mid-records: the size-vs-count check fires.
    ASSERT_EQ(::truncate(path.c_str(), 64 + 100), 0);
    std::string error;
    EXPECT_EQ(corpus.open(hash, &error), nullptr);
    EXPECT_FALSE(error.empty());

    // And a file shorter than one header is refused too.
    ASSERT_EQ(::truncate(path.c_str(), 17), 0);
    error.clear();
    EXPECT_EQ(corpus.open(hash, &error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST_F(CorpusTest, EntryUnderAnotherHashNameIsRefused)
{
    TraceCorpus corpus(dir_);
    const std::string hash0 = corpus.ingest(*suiteTrace(0));
    const std::string hash1 = corpus.ingest(*suiteTrace(1));
    ASSERT_FALSE(hash0.empty());
    ASSERT_FALSE(hash1.empty());

    // A valid entry renamed over another entry's name: its records
    // hash clean against its own header, but it is not the trace the
    // caller asked for, and its results would be cached under the
    // wrong key.
    ASSERT_EQ(::rename(entryPath(hash1).c_str(),
                       entryPath(hash0).c_str()),
              0);
    std::string error;
    EXPECT_EQ(corpus.open(hash0, &error), nullptr);
    EXPECT_NE(error.find(hash0), std::string::npos) << error;
    EXPECT_NE(error.find(hash1), std::string::npos) << error;
}

TEST_F(CorpusTest, UnchangedFileReopensWithoutHashing)
{
    GlobalTelemetryOn telemetry;
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());
    ASSERT_NO_FATAL_FAILURE(verifiedOpen(corpus, hash, kRefs));

    // A new mapping of the same file identity: header-checked and
    // mapped again, but its records are not hashed again.
    const std::uint64_t verified = globalCounter("corpus.verify.refs");
    const std::uint64_t mapped = globalCounter("corpus.map.refs");
    std::string error;
    const auto again = corpus.open(hash, &error);
    ASSERT_NE(again, nullptr) << error;
    EXPECT_EQ(again->size(), kRefs);
    EXPECT_EQ(globalCounter("corpus.verify.refs"), verified);
    EXPECT_EQ(globalCounter("corpus.map.refs") - mapped, kRefs);
}

TEST_F(CorpusTest, InPlaceFlipAfterVerifiedOpenIsRefused)
{
    GlobalTelemetryOn telemetry;
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());
    ASSERT_NO_FATAL_FAILURE(verifiedOpen(corpus, hash, kRefs));

    // Same size, same inode: only the timestamps tell the change.
    corruptFile(entryPath(hash), kRecordByte);
    std::string error;
    EXPECT_EQ(corpus.open(hash, &error), nullptr);
    EXPECT_NE(error.find("hash"), std::string::npos) << error;
}

TEST_F(CorpusTest, TruncationAfterVerifiedOpenIsRefused)
{
    GlobalTelemetryOn telemetry;
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());
    ASSERT_NO_FATAL_FAILURE(verifiedOpen(corpus, hash, kRefs));

    ASSERT_EQ(::truncate(entryPath(hash).c_str(), 64 + 100), 0);
    std::string error;
    EXPECT_EQ(corpus.open(hash, &error), nullptr);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(CorpusTest, FixedFileIsCheckedAgainAfterFailedOpen)
{
    GlobalTelemetryOn telemetry;
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());
    ASSERT_NO_FATAL_FAILURE(verifiedOpen(corpus, hash, kRefs));

    corruptFile(entryPath(hash), kRecordByte);
    std::string error;
    ASSERT_EQ(corpus.open(hash, &error), nullptr);

    // Flipping the bit back restores the content; the open that
    // follows hashes the records again before it trusts them.
    corruptFile(entryPath(hash), kRecordByte);
    const std::uint64_t before = globalCounter("corpus.verify.refs");
    error.clear();
    EXPECT_NE(corpus.open(hash, &error), nullptr) << error;
    EXPECT_EQ(globalCounter("corpus.verify.refs") - before, kRefs);
}

TEST_F(CorpusTest, ConcurrentOpensOfOneHashVerifyOnce)
{
    GlobalTelemetryOn telemetry;
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());
    ASSERT_NO_FATAL_FAILURE(verifiedOpen(corpus, hash, kRefs));
    // Change the file so the next open must hash it again.
    corruptFile(entryPath(hash), kRecordByte);
    corruptFile(entryPath(hash), kRecordByte);

    constexpr std::size_t kThreads = 8;
    std::vector<std::shared_ptr<const PackedTrace>> opened(kThreads);
    const std::uint64_t before = globalCounter("corpus.verify.refs");
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < kThreads; ++i)
            threads.emplace_back([&, i] { opened[i] = corpus.open(hash); });
        for (std::thread &thread : threads)
            thread.join();
    }
    EXPECT_EQ(globalCounter("corpus.verify.refs") - before, kRefs);
    for (const auto &trace : opened) {
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(trace.get(), opened[0].get());
    }
}

TEST(CorpusIdentity, OnlyAnUnchangedFileVerifiedBeforeItsCtimeIsTrusted)
{
    const FileIdentity verified{1, 2, 4096, 1'000'000'000,
                                1'000'000'000};
    const std::int64_t pass_start = 1'004'000'000;
    EXPECT_TRUE(identityStillVerified(verified, pass_start, verified));

    // Racily verified: the ctime is not strictly older than the pass,
    // so a same-tick write may hide behind an unchanged identity.
    EXPECT_FALSE(identityStillVerified(verified, verified.ctimeNs,
                                       verified));
    EXPECT_FALSE(identityStillVerified(verified, verified.ctimeNs - 1,
                                       verified));

    // Any field of the identity moving means a different file.
    FileIdentity now = verified;
    now.dev = 9;
    EXPECT_FALSE(identityStillVerified(verified, pass_start, now));
    now = verified;
    now.ino = 9;
    EXPECT_FALSE(identityStillVerified(verified, pass_start, now));
    now = verified;
    now.size = 8192;
    EXPECT_FALSE(identityStillVerified(verified, pass_start, now));
    now = verified;
    now.mtimeNs += 1;
    EXPECT_FALSE(identityStillVerified(verified, pass_start, now));
    now = verified;
    now.ctimeNs += 1;
    EXPECT_FALSE(identityStillVerified(verified, pass_start, now));
}

TEST_F(CorpusTest, GarbageHeaderIsRefusedAndSkippedByListing)
{
    TraceCorpus corpus(dir_);
    const std::string hash = corpus.ingest(*suiteTrace(0));
    ASSERT_FALSE(hash.empty());

    // Drop a non-OCPC file with the entry suffix next to it.
    const std::string bogus =
        dir_ + "/0123456789abcdef.opc";
    std::ofstream out(bogus, std::ios::binary);
    out << "this is not a corpus entry, it just ends in .opc";
    out.close();

    std::string error;
    EXPECT_EQ(corpus.open("0123456789abcdef", &error), nullptr);
    EXPECT_FALSE(error.empty());

    // entries() warns and skips the bad file, listing the good one.
    const auto all = corpus.entries();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].hash, hash);
}

TEST_F(CorpusTest, ResolveByHashAndNameWithAmbiguityDetection)
{
    TraceCorpus corpus(dir_);
    const auto trace = suiteTrace(0);
    const std::string hash = corpus.ingest(*trace);
    ASSERT_FALSE(hash.empty());

    std::string error;
    EXPECT_EQ(corpus.resolve(hash, &error), hash);
    EXPECT_EQ(corpus.resolve(trace->name(), &error), hash);
    EXPECT_EQ(corpus.resolve("no-such-trace", &error), "");
    EXPECT_FALSE(error.empty());

    // Same workload at a different length: same name, new content —
    // resolution by name becomes ambiguous, by hash stays exact.
    const auto longer =
        buildTraceShared(pdp11Suite().traces[0], kRefs * 2);
    const std::string other = corpus.ingest(*longer);
    ASSERT_FALSE(other.empty());
    ASSERT_NE(other, hash);
    error.clear();
    EXPECT_EQ(corpus.resolve(trace->name(), &error), "");
    EXPECT_NE(error.find("ambiguous"), std::string::npos) << error;
    EXPECT_EQ(corpus.resolve(hash, &error), hash);
    EXPECT_EQ(corpus.resolve(other, &error), other);
}

TEST_F(CorpusTest, PackedSweepPathIsBitIdenticalToVectorPath)
{
    const auto trace0 = suiteTrace(0);
    const auto trace1 = suiteTrace(1);

    TraceCorpus corpus(dir_);
    const std::string hash0 = corpus.ingest(*trace0);
    const std::string hash1 = corpus.ingest(*trace1);
    ASSERT_FALSE(hash0.empty());
    ASSERT_FALSE(hash1.empty());

    std::vector<CacheConfig> configs =
        paperGrid(1024, pdp11Suite().profile.wordSize);
    // A sector point (sub < block) so the batched engine's general
    // kernel runs too.
    CacheConfig sector =
        makeConfig(1024, 32, 8, pdp11Suite().profile.wordSize);
    sector.fetch = FetchPolicy::LoadForward;
    configs.push_back(sector);

    SweepRequest direct;
    direct.traces = {trace0, trace1};
    direct.configs = configs;
    direct.maxRefs = kRefs / 2;
    const SweepReport expected = runSweep(direct);

    SweepRequest packed;
    packed.packedTraces = {corpus.open(hash0), corpus.open(hash1)};
    ASSERT_NE(packed.packedTraces[0], nullptr);
    ASSERT_NE(packed.packedTraces[1], nullptr);
    packed.configs = configs;
    packed.maxRefs = kRefs / 2;
    const SweepReport actual = runSweep(packed);

    expectIdenticalGrid(actual.perTrace, expected.perTrace);
}

TEST_F(CorpusTest, WriteFailureReportsAndLeavesNoPartialFile)
{
    const auto trace = suiteTrace(0);
    const auto packed = packedTraceShared(trace);
    std::string error;
    EXPECT_FALSE(writePackedTraceFile("/nonexistent-dir/x.opc",
                                      *packed, 2, &error));
    EXPECT_FALSE(error.empty());
}
