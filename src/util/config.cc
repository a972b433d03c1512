#include "util/config.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

/**
 * @p v at 15 significant digits, the %.15g bytes Config has always
 * written, unless those read back as another double: then at 16 or 17,
 * whichever is first to read back exactly.
 */
std::string
roundTripText(double v)
{
    char buf[32];
    for (int digits = 15;; ++digits) {
        const std::to_chars_result r = std::to_chars(
            buf, buf + sizeof buf, v, std::chars_format::general, digits);
        double back = 0.0;
        std::from_chars(buf, r.ptr, back);
        if (back == v || digits == 17)
            return std::string(buf, r.ptr);
    }
}

} // anonymous namespace

Expected<Config>
Config::tryFromString(std::string_view text, std::string_view source)
{
    Config cfg;
    cfg.source_ = source;
    std::set<std::string_view> warned;   // views into text
    int lineno = 0;
    for (size_t pos = 0; pos < text.size();) {
        const size_t end = std::min(text.find('\n', pos), text.size());
        std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        ++lineno;
        line = trim(line.substr(0, line.find('#')));
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            return Status::parseError(source, ":", lineno,
                                      ": missing '=' in '", line, "'");
        }
        std::string_view key = trim(line.substr(0, eq));
        if (key.empty())
            return Status::parseError(source, ":", lineno, ": empty key");
        const size_t keys = cfg.values_.size();
        Entry &e = cfg.slot(key);
        const bool repeated = cfg.values_.size() == keys;
        if (repeated && warned.insert(key).second) {
            // Duplicates are almost always a typo; keep the legacy
            // last-write-wins behavior but say so (once per key).
            warn(source, ":", lineno, ": duplicate key '", key,
                 "' overrides earlier value from ", source, ":", e.line);
        }
        e.value = trim(line.substr(eq + 1));
        e.line = lineno;
    }
    return cfg;
}

Expected<Config>
Config::tryFromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open config file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return tryFromString(buf.str(), path);
}

Config::Entry &
Config::slot(std::string_view key)
{
    auto it = values_.lower_bound(key);
    if (it == values_.end() || it->first != key)
        it = values_.emplace_hint(it, std::string(key), Entry{});
    return it->second;
}

void
Config::set(std::string_view key, std::string value)
{
    slot(key) = Entry{std::move(value), 0};
}

void
Config::set(std::string_view key, double value)
{
    set(key, roundTripText(value));
}

void
Config::set(std::string_view key, long long value)
{
    set(key, std::to_string(value));
}

void
Config::set(std::string_view key, int value)
{
    set(key, std::to_string(value));
}

void
Config::set(std::string_view key, bool value)
{
    set(key, std::string(value ? "true" : "false"));
}

bool
Config::has(std::string_view key) const
{
    return values_.count(key) > 0;
}

const Config::Entry *
Config::lookup(std::string_view key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::describeKey(std::string_view key) const
{
    const std::string where = origin(key);
    std::string out = "'";
    out += key;
    out += '\'';
    if (!where.empty()) {
        out += " (";
        out += where;
        out += ')';
    }
    return out;
}

std::string
Config::origin(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e || e->line == 0)
        return "";
    return source_ + ":" + std::to_string(e->line);
}

Expected<std::string>
Config::tryGetString(std::string_view key, const std::string &dflt) const
{
    const Entry *e = lookup(key);
    return e ? e->value : dflt;
}

Expected<double>
Config::tryGetDouble(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto d = parseDouble(e->value);
    if (!d) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not a number");
    }
    if (!std::isfinite(*d)) {
        // NaN/inf parse but poison every downstream model; reject.
        return Status::outOfRange("config key ", describeKey(key), ": '",
                                  e->value, "' is not a finite number");
    }
    return *d;
}

Expected<double>
Config::tryGetDouble(std::string_view key, double dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetDouble(key);
}

Expected<long long>
Config::tryGetInt(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto d = parseInt(e->value);
    if (!d) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not an integer");
    }
    return *d;
}

Expected<long long>
Config::tryGetInt(std::string_view key, long long dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetInt(key);
}

Expected<bool>
Config::tryGetBool(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto b = parseBool(e->value);
    if (!b) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not a boolean");
    }
    return *b;
}

Expected<bool>
Config::tryGetBool(std::string_view key, bool dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetBool(key);
}

std::vector<std::string_view>
Config::keysWithPrefix(std::string_view prefix) const
{
    // Keys that share a prefix are adjacent in key order.
    std::vector<std::string_view> out;
    for (auto it = values_.lower_bound(prefix);
         it != values_.end() && it->first.starts_with(prefix); ++it)
        out.push_back(it->first);
    return out;
}

std::string
Config::toString() const
{
    std::string out;
    for (const auto &[k, e] : values_) {
        out += k;
        out += " = ";
        out += e.value;
        out += '\n';
    }
    return out;
}

} // namespace ena
