#include "mem/cache.hh"

#include "util/logging.hh"

namespace ena {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (!isPow2(params_.lineBytes))
        ENA_FATAL("cache line size must be a power of two, got ",
                  params_.lineBytes);
    if (params_.ways == 0)
        ENA_FATAL("cache needs at least one way");
    std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    if (lines == 0 || lines % params_.ways != 0)
        ENA_FATAL("cache size ", params_.sizeBytes,
                  " not divisible into ", params_.ways, " ways of ",
                  params_.lineBytes, "B lines");
    numSets_ = static_cast<std::uint32_t>(lines / params_.ways);
    if (!isPow2(numSets_))
        ENA_FATAL("cache set count must be a power of two, got ",
                  numSets_);
    lines_.resize(lines);
}

std::uint32_t
Cache::setIndex(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr / params_.lineBytes) &
                                      (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr / params_.lineBytes / numSets_;
}

std::uint64_t
Cache::lineAddr(std::uint32_t set, std::uint64_t tag) const
{
    return (tag * numSets_ + set) * params_.lineBytes;
}

std::uint32_t
Cache::pickVictim(std::uint32_t set) const
{
    // The first invalid way, else the least recently used one.
    std::uint32_t base = set * params_.ways;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        const Line &line = lines_[base + w];
        if (!line.valid)
            return w;
        if (line.stamp < lines_[base + victim].stamp)
            victim = w;
    }
    return victim;
}

CacheOutcome
Cache::access(std::uint64_t addr, bool is_write)
{
    ++tick_;
    std::uint32_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    std::uint32_t base = set * params_.ways;

    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            ++hits_;
            if (is_write)
                line.dirty = true;
            line.stamp = tick_;
            return {true, false, 0};
        }
    }

    ++misses_;
    std::uint32_t victim = pickVictim(set);
    Line &line = lines_[base + victim];
    CacheOutcome out;
    if (line.valid && line.dirty) {
        out.writeback = true;
        out.victimAddr = lineAddr(set, line.tag);
        ++writebacks_;
    }
    line.valid = true;
    line.dirty = is_write;
    line.tag = tag;
    line.stamp = tick_;
    return out;
}

bool
Cache::probe(std::uint64_t addr) const
{
    std::uint32_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    std::uint32_t base = set * params_.ways;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        const Line &line = lines_[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

} // namespace ena
