/**
 * @file
 * Small bit-manipulation helpers used throughout the cache models.
 * All cache dimensions in this simulator (sizes, blocks, sub-blocks,
 * associativity) are powers of two, so these helpers are the basis of
 * every piece of address arithmetic.
 */

#ifndef OCCSIM_UTIL_BITOPS_HH
#define OCCSIM_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>

namespace occsim {

/** Address type: 32-bit byte addresses per the paper's assumptions. */
using Addr = std::uint32_t;

/**
 * Software prefetch hint (read intent). The replay kernels use it to
 * pull the next record's set metadata toward the core while the
 * current record is being priced; a no-op on compilers without the
 * builtin, and always semantics-free.
 */
#if defined(__GNUC__) || defined(__clang__)
#define OCCSIM_PREFETCH_READ(ptr) __builtin_prefetch((ptr), 0, 3)
#else
#define OCCSIM_PREFETCH_READ(ptr) ((void)0)
#endif

/**
 * Force a hot-path helper inline. GCC stops inlining a large function
 * once it has more than one caller, so a per-reference body shared by
 * several replay-loop instantiations (one per record layout) would
 * become a call per record without it.
 */
#if defined(__GNUC__) || defined(__clang__)
#define OCCSIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define OCCSIM_ALWAYS_INLINE inline
#endif

/** @return true if @p v is a (positive) power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); @p v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v | 1));
}

/** @return ceil(log2(v)); @p v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Align @p addr down to a multiple of the power-of-two @p unit. */
constexpr Addr
alignDown(Addr addr, Addr unit)
{
    return addr & ~(unit - 1);
}

/** Align @p addr up to a multiple of the power-of-two @p unit. */
constexpr Addr
alignUp(Addr addr, Addr unit)
{
    return (addr + unit - 1) & ~(unit - 1);
}

/** @return true when @p addr is a multiple of the power-of-two @p unit. */
constexpr bool
isAligned(Addr addr, Addr unit)
{
    return (addr & (unit - 1)) == 0;
}

} // namespace occsim

#endif // OCCSIM_UTIL_BITOPS_HH
