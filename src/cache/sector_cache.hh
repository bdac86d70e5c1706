/**
 * @file
 * The IBM System/360 Model 85 sector cache (Liptay 1968), the first
 * cache memory, and the paper's Table 6 comparison against modern
 * set-associative organizations.
 *
 * The Model 85 organization: 16 KB of data in 16 fully-associative
 * 1024-byte blocks ("sectors"), transferred in 64-byte sub-blocks,
 * LRU replacement, demand fetch of the missing sub-block. In occsim
 * this is exactly a Cache built from make360Model85Config; this file
 * adds Table 6's comparison set.
 */

#ifndef OCCSIM_CACHE_SECTOR_CACHE_HH
#define OCCSIM_CACHE_SECTOR_CACHE_HH

#include <vector>

#include "cache/cache_config.hh"

namespace occsim {

/**
 * Table 6's comparison set: 16 KB caches with 64-byte blocks
 * (sub-block == block) at 4-, 8- and 16-way associativity, LRU.
 */
std::vector<CacheConfig>
table6Comparators(std::uint32_t word_size = 4);

} // namespace occsim

#endif // OCCSIM_CACHE_SECTOR_CACHE_HH
