/**
 * @file
 * HSA-style completion signal.
 *
 * The paper's programmability story (Section II-A1) rests on the HSA
 * system architecture: agents synchronize through signals — shared
 * integer objects that producers decrement and consumers wait on
 * ("efficient synchronization mechanisms"). This is the simulator-side
 * equivalent: a counter with registered callbacks that fire when the
 * value reaches zero.
 */

#ifndef ENA_HSA_SIGNAL_HH
#define ENA_HSA_SIGNAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ena {

class HsaSignal
{
  public:
    explicit HsaSignal(std::int64_t initial = 0, std::string name = "");

    /** Current value. */
    std::int64_t value() const { return value_; }

    /** Producer side: subtract one; fires waiters at zero. */
    void decrement();

    /**
     * Consumer side: run @p fn when the value reaches zero. If the
     * signal is already zero the callback runs immediately.
     */
    void waitZero(std::function<void()> fn);

    const std::string &name() const { return name_; }

  private:
    std::int64_t value_;
    std::string name_;
    std::vector<std::function<void()>> waiters_;
};

} // namespace ena

#endif // ENA_HSA_SIGNAL_HH
