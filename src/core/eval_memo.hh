/**
 * @file
 * Retired: node evaluations are no longer memoized. A (config, app)
 * evaluation costs about 0.2 us, less than a locked hash lookup, so
 * every evaluation path now runs the models directly.
 *
 * What remains is the name set the repository benchmark (perfbench/)
 * still compiles against: the class, sharedInstance(), hits() and
 * misses(), and DesignSpaceExplorer::memoCache(). The cache holds
 * nothing and both counters always read 0. They go away together with
 * the benchmark metrics that read them (core.dse_evals,
 * core.memo_hit_ratio, server.memo_hit_ratio).
 */

#ifndef ENA_CORE_EVAL_MEMO_HH
#define ENA_CORE_EVAL_MEMO_HH

#include <cstdint>

namespace ena {

/** Retired memo cache: holds nothing; hits() and misses() read 0. */
class EvalMemoCache
{
  public:
    /** The one process-wide instance. */
    static const EvalMemoCache &
    sharedInstance()
    {
        static const EvalMemoCache cache;
        return cache;
    }

    std::uint64_t hits() const { return 0; }
    std::uint64_t misses() const { return 0; }
};

} // namespace ena

#endif // ENA_CORE_EVAL_MEMO_HH
