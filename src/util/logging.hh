/**
 * @file
 * Logging and error-reporting helpers for ena-sim.
 *
 * Follows the gem5 convention: fatal() terminates the process for
 * user-caused errors (bad configuration, invalid arguments), panic()
 * aborts for conditions that indicate a bug in the simulator itself.
 * warn()/inform() report non-fatal conditions.
 */

#ifndef ENA_UTIL_LOGGING_HH
#define ENA_UTIL_LOGGING_HH

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

namespace ena {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent, Error, Warn, Info, Debug };

/** Get the current global log level. */
LogLevel logLevel();

/** Set the global log level (affects inform/warn output). */
void setLogLevel(LogLevel level);

/**
 * Receiver of every emitted log line (prefix included, no trailing
 * newline). Invoked under the logger's single sink lock, so calls are
 * serialized even when ThreadPool workers log concurrently.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Replace the default stdout/stderr sink; an empty function restores
 * it. Used by tests and by embedders that redirect simulator output.
 */
void setLogSink(LogSink sink);

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Format a parameter pack into a single string via ostringstream. */
template <typename... Args>
std::string
formatMsg(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Terminate the simulation due to a user error (bad config, bad input).
 * Exits with status 1; does not dump core.
 */
#define ENA_FATAL(...) \
    ::ena::detail::fatalImpl(__FILE__, __LINE__, \
                             ::ena::detail::formatMsg(__VA_ARGS__))

/**
 * Abort due to an internal simulator bug (a condition that should never
 * happen regardless of user input). Calls abort().
 */
#define ENA_PANIC(...) \
    ::ena::detail::panicImpl(__FILE__, __LINE__, \
                             ::ena::detail::formatMsg(__VA_ARGS__))

/** Panic if an invariant does not hold. */
#define ENA_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::ena::detail::panicImpl(__FILE__, __LINE__, \
                ::ena::detail::formatMsg("assertion '" #cond "' failed: ", \
                                         ##__VA_ARGS__)); \
        } \
    } while (0)

/** Report suspicious-but-survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::formatMsg(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::formatMsg(std::forward<Args>(args)...));
}

} // namespace ena

#endif // ENA_UTIL_LOGGING_HH
