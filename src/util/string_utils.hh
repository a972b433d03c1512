/**
 * @file
 * Small string helpers shared across ena-sim (trim, case fold, numeric
 * parsing with error reporting).
 */

#ifndef ENA_UTIL_STRING_UTILS_HH
#define ENA_UTIL_STRING_UTILS_HH

#include <optional>
#include <string>
#include <string_view>

namespace ena {

/** @p s without leading and trailing whitespace: a view into @p s. */
std::string_view trim(std::string_view s);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/** True if @p a and @p b are equal when ASCII case is ignored. */
bool equalsIgnoreCase(std::string_view a, std::string_view b);

/** Parse a double, returning nullopt on malformed input. */
std::optional<double> parseDouble(std::string_view s);

/** Parse a signed 64-bit integer, returning nullopt on malformed input
 *  and on a value outside long long. */
std::optional<long long> parseInt(std::string_view s);

/** Parse a boolean ("true"/"false"/"1"/"0"/"yes"/"no"). */
std::optional<bool> parseBool(std::string_view s);

/** True if @p s starts with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace ena

#endif // ENA_UTIL_STRING_UTILS_HH
