/**
 * @file
 * A small typed key-value configuration store, and the walker that
 * binds config structs to it.
 *
 * Keys are dotted strings ("ehp.cus", "extmem.nvm_fraction"); values are
 * stored as strings and converted on access. Supports parsing from
 * "key = value" text (one per line, '#' comments) so examples and benches
 * can be driven from config files.
 *
 * Errors are values: every entry point returns ena::Status /
 * ena::Expected with precise source:line/key diagnostics, so a sweep
 * can quarantine one bad config instead of dying; CLIs unwrap at their
 * own boundary (unwrapOrFatal). A parsed config keeps its source name
 * once and each key's line number, and spells a key's origin
 * ("file.ini:12") only for a diagnostic. Parsing warns once per key on
 * duplicates (last occurrence wins); typed numeric accessors reject
 * NaN/inf and trailing garbage ("3.0x").
 *
 * Lookups take std::string_view and allocate nothing: a server request
 * decodes its config text without a temporary string per key.
 *
 * A config struct names its keys once, in a field list next to it:
 *
 *   template <typename F> void configFields(Fan &f, F &&field)
 *   {
 *       field("fan.blades", f.blades);          // int, double, bool
 *       field("fan.rpm", f.rpm);                // or std::uint64_t
 *       field("fan.mode", f.mode, fanModeName,  // an enum, with its
 *             tryFanModeFromName);              // name and parser
 *   }
 *
 * readConfigFields<Fan> walks that list to reject unknown keys, read
 * each field and run Fan::tryValidate(); writeConfigFields walks it to
 * serialize. The list's order is the order fields are read in, so it
 * decides which error a file with two bad values reports.
 */

#ifndef ENA_UTIL_CONFIG_HH
#define ENA_UTIL_CONFIG_HH

#include <climits>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace ena {

class Config
{
  public:
    Config() = default;

    /**
     * Parse "key = value" lines. @p source names the text in
     * diagnostics and key origins (defaults to "<string>").
     */
    static Expected<Config> tryFromString(
        std::string_view text, std::string_view source = "<string>");

    /** Load from a file; IoError if unreadable, ParseError if bad. */
    static Expected<Config> tryFromFile(const std::string &path);

    /**
     * Set (or overwrite) a key; it then has no origin. A double is
     * written as %.15g when that reads back as the same double, and
     * with 16 or 17 significant digits otherwise, so every finite
     * double survives toString() and tryFromString() bit for bit.
     */
    void set(std::string_view key, std::string value);
    /** Text, not bool: a literal would otherwise convert to bool. */
    void set(std::string_view key, const char *value)
    {
        set(key, std::string(value));
    }
    void set(std::string_view key, double value);
    void set(std::string_view key, long long value);
    void set(std::string_view key, int value);
    void set(std::string_view key, bool value);

    /** True if the key exists. */
    bool has(std::string_view key) const;

    /**
     * Typed accessors. The no-default forms return NotFound when the
     * key is missing and ParseError/OutOfRange when the value is
     * malformed (non-finite numbers and trailing garbage are
     * malformed); the defaulted forms return the default when the key
     * is absent but still report a present-but-bad value. Diagnostics
     * carry the key and its source:line origin.
     */
    Expected<std::string> tryGetString(std::string_view key,
                                       const std::string &dflt) const;
    Expected<double> tryGetDouble(std::string_view key) const;
    Expected<double> tryGetDouble(std::string_view key, double dflt) const;
    Expected<long long> tryGetInt(std::string_view key) const;
    Expected<long long> tryGetInt(std::string_view key,
                                  long long dflt) const;
    Expected<bool> tryGetBool(std::string_view key) const;
    Expected<bool> tryGetBool(std::string_view key, bool dflt) const;

    /**
     * The keys with the given prefix (e.g. "extmem."), in key order.
     * The views point into this Config and last until it next changes.
     */
    std::vector<std::string_view> keysWithPrefix(
        std::string_view prefix) const;

    /** Serialize back to "key = value" lines in sorted key order. */
    std::string toString() const;

    /**
     * Where a key was parsed from ("cfg.ini:12"); empty for keys added
     * via set() or when unknown. Used in diagnostics.
     */
    std::string origin(std::string_view key) const;

    /** "'key'" or "'key' (cfg.ini:12)" for diagnostics. */
    std::string describeKey(std::string_view key) const;

    size_t size() const { return values_.size(); }

  private:
    struct Entry
    {
        std::string value;
        int line = 0;   ///< line in source_ when parsed; 0 after set()
    };

    const Entry *lookup(std::string_view key) const;
    /** The entry for @p key, default-constructed if it is new. */
    Entry &slot(std::string_view key);

    std::string source_;   ///< what tryFromString() parsed, for origins
    std::map<std::string, Entry, std::less<>> values_;
};

/**
 * The keys one config struct owns, for readConfigFields. Pass it as a
 * braced temporary: ownedElsewhere views an array that lives until the
 * end of the call's full-expression.
 */
struct ConfigFieldScope
{
    /** Names the struct in "unknown <what> key 'k' (file:line)". */
    const char *what;
    /** Every key under this prefix must be on the field list... */
    const char *prefix;
    /** ...except keys under these prefixes, which other structs own. */
    std::initializer_list<const char *> ownedElsewhere = {};
};

namespace config_detail {

/** configFields visitor: reads each field, stopping at the first error. */
class FieldReader
{
  public:
    explicit FieldReader(const Config &cfg) : cfg_(cfg) {}

    const Status &status() const { return status_; }

    void operator()(const char *key, double &v)
    {
        if (status_.ok())
            assign(v, cfg_.tryGetDouble(key, v));
    }

    void operator()(const char *key, bool &v)
    {
        if (status_.ok())
            assign(v, cfg_.tryGetBool(key, v));
    }

    /** A value outside int is OutOfRange, never narrowed. */
    void operator()(const char *key, int &v)
    {
        if (!status_.ok())
            return;
        Expected<long long> n = cfg_.tryGetInt(key, v);
        if (n.ok() && (*n < INT_MIN || *n > INT_MAX)) {
            status_ = Status::outOfRange("config key ", cfg_.describeKey(key),
                                         ": ", *n, " does not fit in an int");
            return;
        }
        assign(v, std::move(n));
    }

    /** Read as a long long and stored as its two's-complement bits. */
    void operator()(const char *key, std::uint64_t &v)
    {
        if (status_.ok())
            assign(v, cfg_.tryGetInt(key, static_cast<long long>(v)));
    }

    template <typename E, typename NameFn, typename FromNameFn>
    void operator()(const char *key, E &v, NameFn name, FromNameFn fromName)
    {
        if (!status_.ok())
            return;
        Expected<std::string> text = cfg_.tryGetString(key, name(v));
        if (!text.ok())
            status_ = text.status();
        else
            assign(v, fromName(*text));
    }

  private:
    template <typename T, typename U>
    void
    assign(T &v, Expected<U> e)
    {
        if (e.ok())
            v = static_cast<T>(*e);
        else
            status_ = e.status();
    }

    const Config &cfg_;
    Status status_;
};

/** configFields visitor: writes each field through Config::set. */
class FieldWriter
{
  public:
    explicit FieldWriter(Config &cfg) : cfg_(cfg) {}

    void operator()(const char *key, double v) { cfg_.set(key, v); }
    void operator()(const char *key, bool v) { cfg_.set(key, v); }
    void operator()(const char *key, int v) { cfg_.set(key, v); }

    void operator()(const char *key, std::uint64_t v)
    {
        cfg_.set(key, static_cast<long long>(v));
    }

    template <typename E, typename NameFn, typename FromNameFn>
    void operator()(const char *key, E v, NameFn name, FromNameFn)
    {
        cfg_.set(key, name(v));
    }

  private:
    Config &cfg_;
};

} // namespace config_detail

/**
 * Load an S from @p cfg through its field list (configFields): keys in
 * @p scope that are not on the list are InvalidArgument (the first in
 * key order, with its source:line); fields absent from @p cfg keep S's
 * defaults; the first malformed value, in list order, is the error; and
 * the result must pass S::tryValidate().
 */
template <typename S>
Expected<S>
readConfigFields(const Config &cfg, const ConfigFieldScope &scope)
{
    S s;
    for (std::string_view key : cfg.keysWithPrefix(scope.prefix)) {
        bool known = false;
        for (const char *other : scope.ownedElsewhere)
            known = known || key.rfind(other, 0) == 0;
        configFields(s, [&](const char *k, auto &&...) {
            known = known || key == k;
        });
        if (!known) {
            return Status::invalidArgument("unknown ", scope.what, " key ",
                                           cfg.describeKey(key));
        }
    }
    config_detail::FieldReader reader(cfg);
    configFields(s, reader);
    ENA_TRY(reader.status());
    ENA_TRY(s.tryValidate());
    return s;
}

/** Serialize an S through its field list (configFields). */
template <typename S>
Config
writeConfigFields(S s)
{
    Config cfg;
    configFields(s, config_detail::FieldWriter(cfg));
    return cfg;
}

} // namespace ena

#endif // ENA_UTIL_CONFIG_HH
