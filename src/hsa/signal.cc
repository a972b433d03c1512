#include "hsa/signal.hh"

#include <utility>

#include "util/logging.hh"

namespace ena {

HsaSignal::HsaSignal(std::int64_t initial, std::string name)
    : value_(initial), name_(std::move(name))
{
}

void
HsaSignal::decrement()
{
    ENA_ASSERT(value_ > 0, "signal '", name_, "' decremented below 0");
    if (--value_ != 0)
        return;
    std::vector<std::function<void()>> ready;
    ready.swap(waiters_);
    for (auto &fn : ready)
        fn();
}

void
HsaSignal::waitZero(std::function<void()> fn)
{
    ENA_ASSERT(fn, "null signal waiter");
    if (value_ == 0) {
        fn();
        return;
    }
    waiters_.push_back(std::move(fn));
}

} // namespace ena
