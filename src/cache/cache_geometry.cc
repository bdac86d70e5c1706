#include "cache/cache_geometry.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

std::string
validateConfig(const CacheConfig &c)
{
    if (!isPowerOfTwo(c.netSize) || !isPowerOfTwo(c.blockSize) ||
        !isPowerOfTwo(c.subBlockSize) || !isPowerOfTwo(c.assoc) ||
        !isPowerOfTwo(c.wordSize))
        return strfmt("cache dimensions must be powers of two (%s)",
                      c.fullName().c_str());
    if (c.subBlockSize > c.blockSize)
        return strfmt("sub-block size %u exceeds block size %u",
                      c.subBlockSize, c.blockSize);
    if (c.blockSize > c.netSize)
        return strfmt("block size %u exceeds net cache size %u",
                      c.blockSize, c.netSize);
    if (c.wordSize > c.subBlockSize)
        return strfmt("word size %u exceeds sub-block size %u",
                      c.wordSize, c.subBlockSize);
    if (c.addressBits == 0 || c.addressBits > 32)
        return strfmt("address bits must be in [1, 32] (got %u)",
                      c.addressBits);
    if (c.addressBits <= floorLog2(c.blockSize))
        return "address space smaller than one block";
    if (c.blockSize / c.subBlockSize > 64)
        return strfmt("more than 64 sub-blocks per block (%u) is "
                      "unsupported",
                      c.blockSize / c.subBlockSize);
    // The caches mark an empty frame with an all-ones tag sentinel,
    // which must be unreachable as a block address: with blockBits
    // >= 1 the largest block address is 2^31 - 1.
    if (c.blockSize == 1)
        return strfmt("block size 1 is unsupported (%s)",
                      c.fullName().c_str());
    // An even I/D split gives each side half the net size, and each
    // half must still hold one block.
    if (c.partition == CachePartition::SplitID &&
        c.netSize < 2 * c.blockSize)
        return strfmt("mixed cache too small to split (%s)",
                      c.fullName().c_str());
    return "";
}

CacheGeometry::CacheGeometry(const CacheConfig &config)
    : config_(config)
{
    const std::string error = validateConfig(config);
    if (!error.empty())
        fatal("%s", error.c_str());

    const auto &c = config_;
    numBlocks_ = c.netSize / c.blockSize;
    // Clamp associativity for caches too small to hold a full set.
    assoc_ = std::min(c.assoc, numBlocks_);
    occsim_assert(assoc_ >= 1, "no ways after clamping");
    numSets_ = numBlocks_ / assoc_;
    subBlocksPerBlock_ = c.blockSize / c.subBlockSize;
    wordsPerSubBlock_ = c.subBlockSize / c.wordSize;
    blockBits_ = floorLog2(c.blockSize);
    subBlockBits_ = floorLog2(c.subBlockSize);
    blockMask_ = c.blockSize - 1;
    setMask_ = numSets_ - 1;

    tagBits_ = c.addressBits - blockBits_;
}

std::uint64_t
CacheGeometry::grossBits() const
{
    // Per block: full tag + one valid bit per sub-block + data bits.
    const std::uint64_t per_block =
        tagBits_ + subBlocksPerBlock_ +
        8ull * config_.blockSize;
    return per_block * numBlocks_;
}

std::uint64_t
CacheGeometry::grossBytes() const
{
    return (grossBits() + 7) / 8;
}

std::uint32_t
CacheGeometry::trueTagBitsPerBlock() const
{
    const std::uint32_t index_bits = floorLog2(numSets_);
    const std::uint32_t offset_bits = blockBits_;
    if (config_.addressBits <= offset_bits + index_bits)
        return 0;
    return config_.addressBits - offset_bits - index_bits;
}

} // namespace occsim
