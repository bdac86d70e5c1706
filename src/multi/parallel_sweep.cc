#include "multi/parallel_sweep.hh"

#include <algorithm>

#include "util/logging.hh"

namespace occsim {

ParallelSweepRunner::ParallelSweepRunner(
    const std::vector<CacheConfig> &configs, ThreadPool *pool,
    SweepEngine engine, bool allow_sharding)
    : pool_(pool), engine_(engine), allowSharding_(allow_sharding),
      plan_(planSweep(configs, engine, {},
                      static_cast<unsigned>(poolOrGlobal(pool).size()),
                      allow_sharding))
{
}

SweepRoute
ParallelSweepRunner::route(std::size_t i) const
{
    occsim_assert(i < plan_.route.size(), "config index out of range");
    return plan_.route[i];
}

std::size_t
ParallelSweepRunner::count(SweepRoute route) const
{
    return static_cast<std::size_t>(
        std::count(plan_.route.begin(), plan_.route.end(), route));
}

const FusedReplay &
ParallelSweepRunner::fusedGroup(std::size_t g) const
{
    occsim_assert(!plan_.traces.empty(), "fusedGroup() before run()");
    return *plan_.traces[0].fused.at(g);
}

const Cache &
ParallelSweepRunner::cache(std::size_t i) const
{
    const SweepRoute r = route(i);
    occsim_assert(r == SweepRoute::Batch || r == SweepRoute::Direct,
                  "config %zu (%s) is served by the %s engine and has "
                  "no single Cache; allow_sharding = false keeps one "
                  "for every unified config",
                  i, plan_.configs[i].shortName().c_str(), routeName(r));
    occsim_assert(!plan_.traces.empty(), "cache() before run()");
    const TracePlan &tp = plan_.traces[0];
    if (r == SweepRoute::Direct) {
        const auto it = std::find(plan_.directIndex.begin(),
                                  plan_.directIndex.end(), i);
        return *tp.direct[static_cast<std::size_t>(
            it - plan_.directIndex.begin())];
    }
    const auto it =
        std::find(tp.batchIndex.begin(), tp.batchIndex.end(), i);
    return tp.batch->cache(
        static_cast<std::size_t>(it - tp.batchIndex.begin()));
}

Cache &
ParallelSweepRunner::cache(std::size_t i)
{
    return const_cast<Cache &>(
        static_cast<const ParallelSweepRunner *>(this)->cache(i));
}

std::uint64_t
ParallelSweepRunner::run(const std::shared_ptr<const VectorTrace> &trace,
                         std::uint64_t max_refs)
{
    occsim_assert(trace != nullptr, "null trace");
    ThreadPool &pool = poolOrGlobal(pool_);
    // First run: fix the routes for this trace length and pool width.
    if (plan_.traces.empty()) {
        plan_ = planSweep(plan_.configs, engine_,
                          {refLimit(trace->refs().size(), max_refs)},
                          static_cast<unsigned>(pool.size()),
                          allowSharding_);
    }
    return runSweepPlan(plan_, {trace}, {}, max_refs, pool);
}

} // namespace occsim
