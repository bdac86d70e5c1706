#include "cache/cache_config.hh"

#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::LRU:
        return "LRU";
      case ReplacementPolicy::FIFO:
        return "FIFO";
      case ReplacementPolicy::Random:
        return "Random";
    }
    return "unknown";
}

const char *
fetchPolicyName(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::Demand:
        return "demand";
      case FetchPolicy::LoadForward:
        return "load-forward";
      case FetchPolicy::LoadForwardOptimized:
        return "load-forward-opt";
      case FetchPolicy::PrefetchNextOnMiss:
        return "prefetch-next";
    }
    return "unknown";
}

const char *
writePolicyName(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::WriteThrough:
        return "write-through";
      case WritePolicy::CopyBack:
        return "copy-back";
    }
    return "unknown";
}

const char *
cachePartitionName(CachePartition partition)
{
    switch (partition) {
      case CachePartition::Unified:
        return "unified";
      case CachePartition::SplitID:
        return "split-id";
    }
    return "unknown";
}

std::string
CacheConfig::shortName() const
{
    std::string name = strfmt("%u,%u", blockSize, subBlockSize);
    if (fetch == FetchPolicy::LoadForward)
        name += ",LF";
    else if (fetch == FetchPolicy::LoadForwardOptimized)
        name += ",LFO";
    else if (fetch == FetchPolicy::PrefetchNextOnMiss)
        name += ",PF";
    if (partition == CachePartition::SplitID)
        name += ",I/D";
    return name;
}

std::string
CacheConfig::fullName() const
{
    return strfmt("%uB %s %u-way %s %s", netSize, shortName().c_str(),
                  assoc, replacementPolicyName(replacement),
                  fetchPolicyName(fetch));
}

CacheConfig
makeConfig(std::uint32_t net_size, std::uint32_t block_size,
           std::uint32_t sub_block_size, std::uint32_t word_size)
{
    CacheConfig config;
    config.netSize = net_size;
    config.blockSize = block_size;
    config.subBlockSize = sub_block_size;
    config.wordSize = word_size;
    return config;
}

CacheConfig
evenSplitHalf(const CacheConfig &mixed_config)
{
    occsim_assert(mixed_config.netSize >= 2 * mixed_config.blockSize,
                  "mixed cache too small to split");
    CacheConfig half = mixed_config;
    half.netSize = mixed_config.netSize / 2;
    half.partition = CachePartition::Unified;
    return half;
}

CacheConfig
make360Model85Config(std::uint32_t word_size)
{
    CacheConfig config;
    config.netSize = 16 * 1024;
    config.blockSize = 1024;
    config.subBlockSize = 64;
    config.assoc = 16;  // 16 blocks total -> fully associative
    config.wordSize = word_size;
    return config;
}

} // namespace occsim
