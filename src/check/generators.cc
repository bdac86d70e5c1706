#include "check/generators.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "vm/assembler.hh"
#include "vm/machine.hh"
#include "vm/program_library.hh"

namespace occsim {

// ---------------------------------------------------------------- //
// ConfigGen
// ---------------------------------------------------------------- //

CacheConfig
ConfigGen::next()
{
    CacheConfig config;
    config.wordSize = rng_.chance(0.5) ? 2 : 4;

    // Size chain: word <= sub <= block <= net, powers of two, at
    // most 64 sub-blocks per block (the engine limit), net capped so
    // a case stays small enough to fuzz by the hundreds.
    config.subBlockSize = config.wordSize
                          << rng_.below(4);               // up to 8x word
    const std::uint64_t max_block_shift =
        std::min<std::uint64_t>(6, floorLog2(64u));       // <= 64 subs
    config.blockSize = config.subBlockSize
                       << rng_.below(max_block_shift + 1);
    config.blockSize = std::min(config.blockSize, 1024u);
    config.netSize = config.blockSize << rng_.below(7);   // up to 64 blocks
    config.netSize = std::min(config.netSize, 16u * 1024u);

    config.assoc = 1u << rng_.below(5);                   // 1..16

    // A quarter of all points are forced to LRU + demand + sub ==
    // block + write-allocate: the sampling engine's checkpoint path
    // (checkpointEligible) and the sub == block case of the fused and
    // batched kernels. Unbiased sampling would hit that conjunction
    // only ~3% of the time.
    if (rng_.chance(0.25)) {
        config.subBlockSize = config.blockSize;
        config.replacement = ReplacementPolicy::LRU;
        config.fetch = FetchPolicy::Demand;
        config.write = rng_.chance(0.5) ? WritePolicy::WriteThrough
                                        : WritePolicy::CopyBack;
        config.writeAllocate = true;
        config.randomSeed = rng_.next();
        return config;
    }

    const std::uint64_t repl = rng_.below(4);
    config.replacement = repl <= 1 ? ReplacementPolicy::LRU
                         : repl == 2 ? ReplacementPolicy::FIFO
                                     : ReplacementPolicy::Random;

    const std::uint64_t fetch = rng_.below(6);
    config.fetch = fetch <= 2   ? FetchPolicy::Demand
                   : fetch == 3 ? FetchPolicy::LoadForward
                   : fetch == 4 ? FetchPolicy::LoadForwardOptimized
                                : FetchPolicy::PrefetchNextOnMiss;

    config.write = rng_.chance(0.5) ? WritePolicy::WriteThrough
                                    : WritePolicy::CopyBack;
    config.writeAllocate = rng_.chance(0.75);
    config.randomSeed = rng_.next();

    // A slice of the general points run split I/D instead of unified,
    // so the split routing path (two half-size sides partitioned by
    // reference kind) is cross-checked alongside everything else. The
    // net-size guard keeps each evenSplitHalf side at least one block.
    if (config.netSize >= 2 * config.blockSize && rng_.chance(0.125))
        config.partition = CachePartition::SplitID;
    return config;
}

// ---------------------------------------------------------------- //
// TraceGen
// ---------------------------------------------------------------- //

namespace {

/** Shared VM-program traces, built once and windowed by the
 *  generator (per word size, so ref sizes match the config). */
const std::vector<MemRef> &
vmTrace16()
{
    static const std::vector<MemRef> refs = [] {
        Program program =
            assemble(progBubbleSort(48), MachineConfig::word16());
        VmTraceSource source(std::move(program), "fuzz-vm16", true);
        return collect(source, 20000).refs();
    }();
    return refs;
}

const std::vector<MemRef> &
vmTrace32()
{
    static const std::vector<MemRef> refs = [] {
        Program program =
            assemble(progFib(12), MachineConfig::word32());
        VmTraceSource source(std::move(program), "fuzz-vm32", true);
        return collect(source, 20000).refs();
    }();
    return refs;
}

/** Random reference kind: mostly reads/ifetches, some writes. */
RefKind
pickKind(Rng &rng)
{
    const std::uint64_t k = rng.below(10);
    if (k < 4)
        return RefKind::Ifetch;
    if (k < 7)
        return RefKind::DataRead;
    return RefKind::DataWrite;
}

} // namespace

std::shared_ptr<VectorTrace>
TraceGen::make(std::size_t len, std::uint32_t word_size)
{
    auto trace = std::make_shared<VectorTrace>("fuzz");
    trace->reserve(len);
    const Addr word = word_size;
    const Addr space = 1u << 22;  // 4 MB address space

    const auto emit = [&](Addr addr, RefKind kind) {
        trace->append(alignDown(addr % space, word), kind,
                      static_cast<std::uint8_t>(word_size));
    };

    while (trace->size() < len) {
        const std::size_t budget = len - trace->size();
        const std::size_t seg_len = std::min<std::size_t>(
            budget, 8 + rng_.below(120));
        const std::uint64_t pattern = rng_.below(7);
        const Addr base =
            alignDown(static_cast<Addr>(rng_.below(space)), word);

        switch (pattern) {
          case 0: {  // uniform over a small pool
            const Addr pool =
                word * static_cast<Addr>(1 + rng_.below(512));
            for (std::size_t i = 0; i < seg_len; ++i) {
                emit(base + word * static_cast<Addr>(
                                       rng_.below(pool / word)),
                     pickKind(rng_));
            }
            break;
          }
          case 1: {  // aliasing hot set: power-of-two stride
            const Addr stride = 1u << (6 + rng_.below(9));
            const std::uint64_t k = 2 + rng_.below(20);
            for (std::size_t i = 0; i < seg_len; ++i) {
                emit(base + stride * static_cast<Addr>(i % k),
                     pickKind(rng_));
            }
            break;
          }
          case 2: {  // thrash loop around typical associativities
            const Addr stride = 1u << (7 + rng_.below(7));
            const std::uint64_t ways = 1ull << rng_.below(5);
            const std::uint64_t k = ways + 1 + rng_.below(3);
            for (std::size_t i = 0; i < seg_len; ++i) {
                emit(base + stride * static_cast<Addr>(i % k),
                     pickKind(rng_));
            }
            break;
          }
          case 3: {  // sequential scan
            const bool writes = rng_.chance(0.3);
            for (std::size_t i = 0; i < seg_len; ++i) {
                emit(base + word * static_cast<Addr>(i),
                     writes && rng_.chance(0.5) ? RefKind::DataWrite
                                                : RefKind::DataRead);
            }
            break;
          }
          case 4: {  // stack churn: push/pop around a hot top
            Addr sp = base;
            for (std::size_t i = 0; i < seg_len; ++i) {
                if (rng_.chance(0.5))
                    sp += word;
                else if (sp >= word)
                    sp -= word;
                emit(sp, rng_.chance(0.4) ? RefKind::DataWrite
                                          : RefKind::DataRead);
            }
            break;
          }
          case 5: {  // scan into the very top of the address space
            // Deliberately not folded into `space`: references next
            // to 0xFFFFFFFF make PrefetchNextOnMiss targets wrap
            // past the top of Addr, pinning the suppressed-prefetch
            // semantics across every engine.
            const Addr top_start =
                alignDown(~Addr{0}, word) -
                word * static_cast<Addr>(seg_len - 1);
            const bool writes = rng_.chance(0.3);
            for (std::size_t i = 0; i < seg_len; ++i) {
                trace->append(
                    top_start + word * static_cast<Addr>(i),
                    writes && rng_.chance(0.5) ? RefKind::DataWrite
                                               : RefKind::DataRead,
                    static_cast<std::uint8_t>(word_size));
            }
            break;
          }
          default: {  // window of a real VM-program trace
            const std::vector<MemRef> &vm =
                word_size == 2 ? vmTrace16() : vmTrace32();
            const std::size_t off = rng_.below(vm.size());
            for (std::size_t i = 0; i < seg_len; ++i) {
                const MemRef &ref = vm[(off + i) % vm.size()];
                emit(ref.addr, ref.kind);
            }
            break;
          }
        }
    }
    return trace;
}

} // namespace occsim
