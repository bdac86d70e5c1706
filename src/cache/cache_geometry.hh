/**
 * @file
 * Derived cache geometry: validated dimensions, address decomposition,
 * and the paper's gross-size (tag + valid + data) cost model.
 *
 * The paper charges each block a full tag of (addressBits -
 * log2(blockSize)) bits regardless of how many bits the set index
 * could remove; footnote 3 explicitly neglects that lower-order
 * effect, and the published gross sizes (Table 7, e.g. 79 bytes for a
 * 64-byte 16,8 cache) follow this model exactly. We reproduce it and
 * also expose the "true" tag size for comparison.
 */

#ifndef OCCSIM_CACHE_CACHE_GEOMETRY_HH
#define OCCSIM_CACHE_CACHE_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "cache/cache_config.hh"
#include "util/bitops.hh"

namespace occsim {

/**
 * The one copy of the cache-shape rules: every size a power of two,
 * word <= sub-block <= block <= net, address bits in [1, 32] and
 * wider than the block offset, at most 64 sub-blocks per block, block
 * size at least 2, and a split I/D cache at least two blocks big.
 * @return "" when @p config is valid, else the reason it is not.
 * CacheGeometry dies on the same message; validateSweepRequest
 * (multi/sweep_api.hh) returns it, so a server can refuse a request
 * that a command-line tool may die on.
 */
std::string validateConfig(const CacheConfig &config);

/** Validated, derived dimensions for one CacheConfig. */
class CacheGeometry
{
  public:
    /** Derive all dimensions of @p config. Calls fatal() with
     *  validateConfig's message when the config is invalid. */
    explicit CacheGeometry(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    std::uint32_t numBlocks() const { return numBlocks_; }
    std::uint32_t numSets() const { return numSets_; }
    /** Effective associativity after clamping to numBlocks. */
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t subBlocksPerBlock() const { return subBlocksPerBlock_; }
    std::uint32_t wordsPerSubBlock() const { return wordsPerSubBlock_; }

    /** Address decomposition. */
    Addr blockAddr(Addr addr) const { return addr >> blockBits_; }
    Addr setIndex(Addr addr) const
    {
        return (addr >> blockBits_) & setMask_;
    }
    Addr tag(Addr addr) const { return addr >> blockBits_; }
    std::uint32_t subBlockIndex(Addr addr) const
    {
        return (addr & blockMask_) >> subBlockBits_;
    }

    /** Gross-size model (paper's accounting; see file comment). */
    std::uint32_t tagBitsPerBlock() const { return tagBits_; }
    std::uint32_t validBitsPerBlock() const { return subBlocksPerBlock_; }
    std::uint64_t grossBits() const;
    /** Gross size in bytes, rounded up. */
    std::uint64_t grossBytes() const;

    /** Tag bits if the set index were deducted (footnote-3 effect). */
    std::uint32_t trueTagBitsPerBlock() const;

    std::uint32_t blockBits() const { return blockBits_; }
    std::uint32_t subBlockBits() const { return subBlockBits_; }

  private:
    CacheConfig config_;
    std::uint32_t numBlocks_ = 0;
    std::uint32_t numSets_ = 0;
    std::uint32_t assoc_ = 0;
    std::uint32_t subBlocksPerBlock_ = 0;
    std::uint32_t wordsPerSubBlock_ = 0;
    std::uint32_t blockBits_ = 0;
    std::uint32_t subBlockBits_ = 0;
    std::uint32_t tagBits_ = 0;
    Addr blockMask_ = 0;
    Addr setMask_ = 0;
};

} // namespace occsim

#endif // OCCSIM_CACHE_CACHE_GEOMETRY_HH
