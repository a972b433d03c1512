/**
 * @file
 * Set-associative cache (functional content tracking + hit/miss stats).
 *
 * Used as the per-CU L1 and per-chiplet L2 in the cycle-level simulator.
 * Timing (hit latency, miss handling) is the owner's responsibility; the
 * cache answers hit/miss, performs fills/evictions, and tracks dirty
 * state for writeback traffic accounting.
 */

#ifndef ENA_MEM_CACHE_HH
#define ENA_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace ena {

/** Replacement policies available per cache instance. */
enum class ReplPolicy
{
    Lru,
    Fifo,
    Random,
};

struct CacheParams
{
    std::uint64_t sizeBytes = 2ull << 20;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 8;
    ReplPolicy policy = ReplPolicy::Lru;
};

/** Result of one access. */
struct CacheOutcome
{
    bool hit = false;
    /** A dirty line was evicted and must be written back. */
    bool writeback = false;
    /** Address of the evicted line (valid when writeback). */
    std::uint64_t victimAddr = 0;
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params, std::uint64_t seed = 1);

    /**
     * Access one address: on a miss the line is filled (allocate-on-miss
     * for both reads and writes) and the victim reported.
     */
    CacheOutcome access(std::uint64_t addr, bool is_write);

    /** Hit check without side effects. */
    bool probe(std::uint64_t addr) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    double
    hitRate() const
    {
        std::uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(hits_) / n : 0.0;
    }

    std::uint32_t numSets() const { return numSets_; }
    const CacheParams &params() const { return params_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;   ///< LRU: last use; FIFO: fill time
    };

    std::uint32_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
    std::uint64_t lineAddr(std::uint32_t set, std::uint64_t tag) const;
    std::uint32_t pickVictim(std::uint32_t set);

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<Line> lines_;   ///< numSets_ x ways, row-major
    std::uint64_t tick_ = 0;    ///< logical access counter for stamps
    Rng rng_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace ena

#endif // ENA_MEM_CACHE_HH
