#include "workload/synthetic.hh"

#include "util/logging.hh"

namespace occsim {

SyntheticSource::SyntheticSource(const SyntheticParams &params)
    : params_(params), rng_(params.seed)
{
    occsim_assert(params_.wordSize == 2 || params_.wordSize == 4,
                  "word size must be 2 or 4");
    occsim_assert(params_.codeSize >= 64 && params_.dataSize >= 64,
                  "code/data regions too small");
    reset();
}

void
SyntheticSource::reset()
{
    rng_.seed(params_.seed);
    pc_ = params_.codeBase;
    scanPtr_ = params_.dataBase;
    stackPtr_ = params_.stackBase;
}

Addr
SyntheticSource::alignWord(Addr addr) const
{
    return addr & ~(params_.wordSize - 1);
}

MemRef
SyntheticSource::nextIfetch()
{
    const auto &p = params_;
    MemRef ref{alignWord(pc_), RefKind::Ifetch,
               static_cast<std::uint8_t>(p.wordSize)};

    if (rng_.chance(p.branchProb)) {
        if (rng_.chance(p.branchLocalProb)) {
            // Loop-like branch: short, biased backward (2:1).
            const std::int64_t span = p.loopSpan;
            std::int64_t delta = rng_.between(1, span);
            if (!rng_.chance(1.0 / 3.0))
                delta = -delta;
            std::int64_t target =
                static_cast<std::int64_t>(pc_) + delta;
            const std::int64_t lo = p.codeBase;
            const std::int64_t hi = p.codeBase + p.codeSize - p.wordSize;
            if (target < lo)
                target = lo;
            if (target > hi)
                target = hi;
            pc_ = static_cast<Addr>(target);
        } else {
            // Far jump: call or long branch anywhere in the code.
            pc_ = p.codeBase +
                  static_cast<Addr>(rng_.below(p.codeSize));
        }
    } else {
        pc_ += p.wordSize;
        if (pc_ >= p.codeBase + p.codeSize)
            pc_ = p.codeBase;
    }
    return ref;
}

MemRef
SyntheticSource::nextData()
{
    const auto &p = params_;
    Addr addr;
    const double region = rng_.uniform();
    if (region < p.dataStackProb) {
        // Stack window random walk around the stack pointer.
        const std::int64_t offset =
            rng_.between(0, static_cast<std::int64_t>(p.stackWindow) -
                                p.wordSize);
        addr = p.stackBase - static_cast<Addr>(offset);
        if (rng_.chance(0.05)) {
            stackPtr_ = p.stackBase -
                        static_cast<Addr>(rng_.below(p.stackWindow));
        }
    } else if (region < p.dataStackProb + p.dataScanProb) {
        // Sequential scan with occasional restart (array sweeps).
        addr = scanPtr_;
        scanPtr_ += p.wordSize;
        if (scanPtr_ >= p.dataBase + p.dataSize ||
            rng_.chance(p.scanRestartProb)) {
            scanPtr_ = p.dataBase +
                       static_cast<Addr>(rng_.below(p.dataSize));
        }
    } else {
        // Uniform reference over the data working set.
        addr = p.dataBase + static_cast<Addr>(rng_.below(p.dataSize));
    }

    const RefKind kind = rng_.chance(p.writeFraction)
                             ? RefKind::DataWrite
                             : RefKind::DataRead;
    return MemRef{alignWord(addr), kind,
                  static_cast<std::uint8_t>(p.wordSize)};
}

bool
SyntheticSource::next(MemRef &ref)
{
    ref = rng_.chance(params_.ifetchFraction) ? nextIfetch()
                                              : nextData();
    return true;
}

VectorTrace
makeSyntheticTrace(const SyntheticParams &params, std::uint64_t refs,
                   const std::string &name)
{
    SyntheticSource source(params);
    VectorTrace trace(name);
    trace.reserve(refs);
    MemRef ref;
    for (std::uint64_t i = 0; i < refs; ++i) {
        source.next(ref);
        trace.append(ref);
    }
    return trace;
}

} // namespace occsim
