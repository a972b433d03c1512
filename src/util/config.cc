#include "util/config.hh"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

Expected<Config>
Config::tryFromString(std::string_view text, const std::string &source)
{
    Config cfg;
    std::istringstream in{std::string(text)};
    std::string line;
    int lineno = 0;
    std::set<std::string> warned;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::string t = trim(line);
        if (t.empty())
            continue;
        size_t eq = t.find('=');
        if (eq == std::string::npos) {
            return Status::parseError(source, ":", lineno,
                                      ": missing '=' in '", t, "'");
        }
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            return Status::parseError(source, ":", lineno, ": empty key");
        auto it = cfg.values_.find(key);
        if (it != cfg.values_.end() && warned.insert(key).second) {
            // Duplicates are almost always a typo; keep the legacy
            // last-write-wins behavior but say so (once per key).
            warn(source, ":", lineno, ": duplicate key '", key,
                 "' overrides earlier value from ", it->second.origin);
        }
        cfg.values_[key] = Entry{value, source + ":" +
                                            std::to_string(lineno)};
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

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = Entry{value, ""};
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os.precision(15);
    os << value;
    values_[key] = Entry{os.str(), ""};
}

void
Config::set(const std::string &key, long long value)
{
    values_[key] = Entry{std::to_string(value), ""};
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = Entry{std::to_string(value), ""};
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = Entry{value ? "true" : "false", ""};
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

const Config::Entry *
Config::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::describeKey(const std::string &key) const
{
    const Entry *e = lookup(key);
    if (e && !e->origin.empty())
        return "'" + key + "' (" + e->origin + ")";
    return "'" + key + "'";
}

std::string
Config::origin(const std::string &key) const
{
    const Entry *e = lookup(key);
    return e ? e->origin : "";
}

Expected<std::string>
Config::tryGetString(const std::string &key,
                     const std::string &dflt) const
{
    const Entry *e = lookup(key);
    return e ? e->value : dflt;
}

Expected<double>
Config::tryGetDouble(const std::string &key) const
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
Config::tryGetDouble(const std::string &key, double dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetDouble(key);
}

Expected<long long>
Config::tryGetInt(const std::string &key) const
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
Config::tryGetInt(const std::string &key, long long dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetInt(key);
}

Expected<bool>
Config::tryGetBool(const std::string &key) const
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
Config::tryGetBool(const std::string &key, bool dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetBool(key);
}

std::vector<std::string>
Config::keysWithPrefix(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values_) {
        if (startsWith(k, prefix))
            out.push_back(k);
    }
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &[k, v] : values_)
        os << k << " = " << v.value << "\n";
    return os.str();
}

} // namespace ena
