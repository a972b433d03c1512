/**
 * @file
 * Small helpers for content-addressed memoization of pure evaluation
 * terms (see core/eval_batch.cc).
 *
 * Keys are built from the *raw bit patterns* of the inputs a term
 * actually reads, never from rounded or hashed values, so a cache hit
 * is guaranteed to return the exact double the term function would
 * have produced — the bit-identity contract of the batch evaluator
 * rests on exact keys, not probabilistic ones.
 */

#ifndef ENA_UTIL_MEMO_HH
#define ENA_UTIL_MEMO_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace ena {

/** Raw IEEE-754 bit pattern of a double (exact, no rounding). */
inline std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** SplitMix64 finalizer: cheap, well-distributed 64-bit mixer. */
inline std::uint64_t
memoMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Exact-keyed open-addressed map from a 64-bit key to one double,
 * sized for per-batch term caches whose key cardinality is the axis
 * cardinality of a sweep (a handful to a few hundred entries).
 *
 * Keys are compared exactly (the hash only picks the probe start), so
 * two distinct inputs can never alias. Single-threaded by design: each
 * batch evaluation owns its term caches, so no locking is needed.
 */
class TermCache
{
  public:
    /** Small by default: evaluateBatchAll builds 56 caches per batch,
     *  and most hold a handful of entries (the table grows at 3/4). */
    explicit TermCache(std::size_t initial_slots = 16)
    {
        slots_.resize(roundUpPow2(initial_slots));
    }

    /**
     * Return the cached value for @p key, or compute it with @p fn,
     * remember it, and return it.
     */
    template <typename Fn>
    double
    getOrCompute(std::uint64_t key, Fn &&fn)
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t i = memoMix(key) & mask;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask;
        }
        double v = fn();
        slots_[i] = Slot{key, v, true};
        if (++size_ * 4 >= slots_.size() * 3)
            grow();
        return v;
    }

    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        double value = 0.0;
        bool used = false;
    };

    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 16;
        while (p < n)
            p <<= 1;
        return p;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        std::size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = memoMix(s.key) & mask;
            while (slots_[i].used)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace ena

#endif // ENA_UTIL_MEMO_HH
