#include "util/string_utils.hh"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ena {

std::string_view
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::optional<double>
parseDouble(std::string_view s)
{
    std::string t(trim(s));
    if (t.empty())
        return std::nullopt;
    char *end = nullptr;
    double v = std::strtod(t.c_str(), &end);
    if (end != t.c_str() + t.size())
        return std::nullopt;
    return v;
}

std::optional<long long>
parseInt(std::string_view s)
{
    std::string t(trim(s));
    if (t.empty())
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(t.c_str(), &end, 0);
    if (end != t.c_str() + t.size() || errno == ERANGE)
        return std::nullopt;
    return v;
}

std::optional<bool>
parseBool(std::string_view s)
{
    std::string t = toLower(trim(s));
    if (t == "true" || t == "1" || t == "yes" || t == "on")
        return true;
    if (t == "false" || t == "0" || t == "no" || t == "off")
        return false;
    return std::nullopt;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return {};
    }
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace ena
