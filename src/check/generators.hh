/**
 * @file
 * Seeded property-based generators for the differential fuzz
 * harness: randomized cache geometries spanning the full paper grid
 * (and beyond it: FIFO/Random replacement, prefetch, no-allocate
 * writes) and adversarial reference traces built from patterns known
 * to stress cache simulators — aliasing hot sets, thrash loops one
 * block beyond the associativity, sequential scans, stack churn, and
 * prefixes of real VM-program traces.
 *
 * Everything is a pure function of the seed: the same seed always
 * yields the same configuration and the same trace, on every
 * platform, so a failing fuzz case is replayable from two integers
 * (seed, case index).
 */

#ifndef OCCSIM_CHECK_GENERATORS_HH
#define OCCSIM_CHECK_GENERATORS_HH

#include <cstdint>
#include <memory>

#include "cache/cache_config.hh"
#include "trace/trace.hh"
#include "util/random.hh"

namespace occsim {

/**
 * Random cache-design points. The distribution covers the paper's
 * whole Table 1 grid — every (word, sub-block, block, net) chain of
 * powers of two with sub <= block <= net and at most 64 sub-blocks
 * per block — plus the ablation dimensions: associativity 1..16,
 * LRU/FIFO/Random, all four fetch policies, both write policies, and
 * no-allocate writes. A quarter of all points are forced to LRU +
 * demand + sub==block + write-allocate — the sampling engine's
 * checkpoint family and the fused/batched engines' one-bit-mask case
 * — so both are cross-checked by a healthy fraction of cases, not the
 * ~3% unbiased sampling would yield.
 */
class ConfigGen
{
  public:
    explicit ConfigGen(std::uint64_t seed) : rng_(seed) {}

    /** Produce the next random design point. */
    CacheConfig next();

  private:
    Rng rng_;
};

/**
 * Random adversarial traces. A trace is a concatenation of segments,
 * each drawn from one pattern generator:
 *
 *  - uniform:   word-aligned references over a small pool.
 *  - hot sets:  round-robin over addresses a power-of-two stride
 *               apart, so they collide into one set at every set
 *               count up to stride/block.
 *  - thrash:    a loop over k blocks of one set with k chosen near
 *               typical associativities, the classic LRU worst case.
 *  - scan:      sequential walk (the load-forward stress).
 *  - stack:     push/pop bursts around a moving stack pointer.
 *  - vm prefix: a window of a real VM-program trace (genuine
 *               control-flow locality, ifetch/data interleaving).
 *
 * Reference kinds mix instruction fetches, reads and writes; every
 * address is aligned to the word size.
 */
class TraceGen
{
  public:
    explicit TraceGen(std::uint64_t seed) : rng_(seed) {}

    /**
     * Generate a trace of exactly @p len references for @p word_size
     * byte words.
     */
    std::shared_ptr<VectorTrace> make(std::size_t len,
                                      std::uint32_t word_size);

  private:
    Rng rng_;
};

} // namespace occsim

#endif // OCCSIM_CHECK_GENERATORS_HH
