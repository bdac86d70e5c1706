/**
 * @file
 * The coherent multi-cache engine: N private CoherentCaches on one
 * snooping bus, driven by an interleaved per-core reference stream.
 *
 * Model. Every core owns a private sub-block cache; block-granular
 * MESI state keeps them coherent over an atomic snooping bus (one
 * transaction completes before the next begins — the trace-driven
 * analog of the paper's single shared memory bus). Data moves in
 * sub-blocks, so the paper's traffic-ratio methodology extends
 * directly: the bus sees the same demand-fetch bursts a single cache
 * would produce, plus the coherency traffic this engine exists to
 * measure — read-for-ownership fills, address-only upgrades,
 * invalidations, snoop-forced write-back flushes, and cache-to-cache
 * supply of dirty data.
 *
 * Accounting contract (CoherencyStats):
 *  - busReads: block or sub-block fills serviced for reads, plus
 *    write fills that needed no ownership change (E/M holders).
 *  - busReadForOwnership: write fills that invalidated peers (BusRdX).
 *  - busUpgrades: address-only S->M upgrades (no data words).
 *  - invalidations: peer copies killed by BusRdX or an upgrade.
 *  - cacheToCacheTransfers / c2cWords: a Modified peer supplied the
 *    requested sub-block directly.
 *  - snoopWritebackWords: dirty words flushed to memory by a snoop
 *    (these also appear in the owning core's CacheStats
 *    writebackWords, so per-core copy-back totals stay complete).
 *
 * The anchor invariant: with one core the bus degenerates — no peer
 * ever holds a block, every fill lands Exclusive, E->M upgrades are
 * silent — and the per-core CacheStats is bit-identical to a plain
 * Cache over the same trace (test_coherence pins this across the
 * paper's grid). A naive flat-snooping oracle
 * (check/coherence_check.hh) re-derives every counter above for the
 * multicore cases.
 *
 * Kernel. access(), replay() and replayPacked() all run one
 * accessSpec<R, A> instantiation, picked at construction from the
 * cores' shapes (DESIGN.md §16): a shared replacement policy and a
 * shared 1/2/4/8-way associativity are fixed at compile time; any
 * other shape takes the runtime-shape (A = 0) instantiation of the
 * same body.
 */

#ifndef OCCSIM_COHERENCE_COHERENT_SYSTEM_HH
#define OCCSIM_COHERENCE_COHERENT_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coherence/coherent_cache.hh"
#include "coherence/scenario.hh"
#include "trace/packed_trace.hh"
#include "trace/trace.hh"

namespace occsim {

/** Snooping-bus traffic counters for one coherent run. */
struct CoherencyStats
{
    std::uint64_t busReads = 0;
    std::uint64_t busReadForOwnership = 0;
    std::uint64_t busUpgrades = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t cacheToCacheTransfers = 0;
    std::uint64_t c2cWords = 0;
    std::uint64_t snoopWritebackWords = 0;

    /** All bus transactions (data-carrying and address-only). */
    std::uint64_t busTransactions() const
    {
        return busReads + busReadForOwnership + busUpgrades;
    }

    bool operator==(const CoherencyStats &other) const = default;
};

/** N private caches + one snooping bus. */
class CoherentSystem
{
  public:
    /**
     * Build the scenario's caches. @p grid_config is the sweep-grid
     * entry being priced; each core's shape comes from
     * scenarioCoreConfig(). The scenario must already have passed
     * validateScenario() (the constructor re-asserts the subset).
     */
    CoherentSystem(const ScenarioConfig &scenario,
                   const CacheConfig &grid_config);

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(caches_.size());
    }
    const CoherentCache &core(std::uint32_t i) const
    {
        return caches_[i];
    }
    const CoherencyStats &bus() const { return bus_; }

    /** Simulate one reference on the core named by @p ref.core
     *  (reduced modulo the core count, so any trace is replayable on
     *  any scenario). */
    void access(const MemRef &ref) { replay(&ref, 1); }

    /** Replay a MemRef span. Does NOT finalize; callers finalize
     *  after the last span. */
    void replay(const MemRef *refs, std::size_t n)
    {
        (this->*kernel_)(refs, n);
    }

    /** Replay a packed span (same core routing via the packed core
     *  bits). Does NOT finalize. */
    void replayPacked(const PackedRecord *refs, std::size_t n)
    {
        (this->*kernelPacked_)(refs, n);
    }

    /** Drain @p source (up to @p max_refs, 0 = all) and finalize.
     *  @return references simulated. */
    std::uint64_t run(TraceSource &source, std::uint64_t max_refs = 0);

    /** End-of-run residency accounting on every core. */
    void finalize();

    /** Whether the kernel is the runtime-shape (A = 0) instantiation:
     *  the cores differ in replacement policy or associativity, or
     *  share an associativity other than 1, 2, 4 or 8. */
    bool genericKernel() const { return generic_; }

  private:
    /**
     * One reference on @p core: the engine's only access path. @p R
     * is the cores' shared replacement policy, or
     * CoherentCache::kRuntimePolicy when they differ; @p A their
     * shared associativity when it is 1, 2, 4 or 8, else 0 (runtime
     * value, per core).
     */
    template <ReplacementPolicy R, std::uint32_t A>
    void accessSpec(std::uint32_t core, Addr addr, bool is_write,
                    bool is_ifetch);

    /** Snoop every peer of @p requester holding @p block_addr for a
     *  read fill. @return whether any peer held it (the shared
     *  line). Touches no replacement state. */
    template <std::uint32_t A>
    bool snoopRead(std::uint32_t requester, Addr block_addr);

    /** Snoop + invalidate every peer copy of @p block_addr
     *  (@p Upgrade selects the address-only upgrade event vs
     *  BusRdX). Touches no replacement state. */
    template <std::uint32_t A, bool Upgrade>
    void snoopInvalidate(std::uint32_t requester, Addr block_addr);

    /** Kernel: replay a MemRef or PackedRecord span through
     *  accessSpec. */
    template <ReplacementPolicy R, std::uint32_t A, class Rec>
    void replayLoop(const Rec *refs, std::size_t n);

    template <class Rec>
    using ReplayKernel = void (CoherentSystem::*)(const Rec *,
                                                  std::size_t);

    /** The replayLoop instantiation for one (policy, associativity)
     *  shape, chosen once, at construction. */
    template <class Rec>
    static ReplayKernel<Rec> selectKernel(ReplacementPolicy repl,
                                          std::uint32_t assoc);

    std::vector<CoherentCache> caches_;
    CoherencyStats bus_;
    bool generic_ = false;
    ReplayKernel<MemRef> kernel_ = nullptr;
    ReplayKernel<PackedRecord> kernelPacked_ = nullptr;
};

} // namespace occsim

#endif // OCCSIM_COHERENCE_COHERENT_SYSTEM_HH
