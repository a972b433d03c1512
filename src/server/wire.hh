/**
 * @file
 * Hand-rolled minimal JSON for the evaluation server's wire protocol.
 * No external dependencies; just enough JSON for newline-delimited
 * request/response objects.
 *
 * Numbers are written by std::to_chars at 17 significant digits
 * (DBL_DECIMAL_DIG), the same bytes as %.17g, and read by
 * std::from_chars; both are correctly rounded, so every finite double
 * round-trips exactly — the server's bit-identity guarantee rides on
 * this. Out-of-range literals (1e999, 1e-400) read as +-inf and +-0.
 * Non-finite numbers serialize as null (JSON has no inf/nan).
 *
 * Objects preserve insertion order so serialized responses are
 * deterministic and diffable. A parsed object with a repeated key keeps
 * the key where it first appeared, with the last value given for it.
 *
 * JsonWriter is the one encoder: JsonValue::dump() goes through it,
 * and the server writes its responses with it directly, without
 * building a JsonValue first.
 */

#ifndef ENA_SERVER_WIRE_HH
#define ENA_SERVER_WIRE_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace ena::wire {

class JsonParser;

/** A JSON value: null, bool, number, string, array, or object. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double n) : kind_(Kind::Number), num_(n) {}
    JsonValue(int n) : kind_(Kind::Number), num_(n) {}
    JsonValue(long n) : kind_(Kind::Number), num_(double(n)) {}
    JsonValue(unsigned long n) : kind_(Kind::Number), num_(double(n)) {}
    JsonValue(const char *s) : kind_(Kind::String), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static JsonValue
    object()
    {
        JsonValue v;
        v.kind_ = Kind::Object;
        return v;
    }

    static JsonValue
    array()
    {
        JsonValue v;
        v.kind_ = Kind::Array;
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }
    const std::string &str() const { return str_; }

    /** Object: set (or replace) a member. Returns *this for chaining. */
    JsonValue &set(std::string key, JsonValue value);

    /** Object: member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
    JsonValue *find(std::string_view key);

    /** Array: append an element. Returns *this for chaining. */
    JsonValue &push(JsonValue value);

    /** Array/object element count. */
    std::size_t size() const;

    /** Array element access (unchecked). */
    const JsonValue &at(std::size_t i) const { return arr_[i]; }

    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj_;
    }

    const std::vector<JsonValue> &elements() const { return arr_; }

    /** Compact one-line serialization (no embedded newlines). */
    std::string dump() const;

  private:
    friend class JsonParser;   // parses into the members in place

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
    std::vector<JsonValue> arr_;
};

/**
 * Append-only JSON encoder into a caller's string. It separates members
 * and elements by the last byte written: a comma goes before every key
 * or value except at the start of the string and after '{', '[' or
 * ':'. The caller keeps the nesting balanced and follows each key()
 * with one value.
 */
class JsonWriter
{
  public:
    /** Continue the JSON text in @p out (usually empty). */
    explicit JsonWriter(std::string *out) : out_(out) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** An object member's key; its value is the next thing written. */
    JsonWriter &key(std::string_view k);

    JsonWriter &null();
    JsonWriter &boolean(bool b);
    /** 17 significant digits (%.17g bytes); non-finite as null. */
    JsonWriter &number(double n);
    JsonWriter &string(std::string_view s);
    JsonWriter &value(const JsonValue &v);

  private:
    void separate();

    std::string *out_;
};

/**
 * Parse one JSON document (leading/trailing whitespace allowed). The
 * parser reuses stacks kept per thread; between documents a thread
 * keeps at most 7 KiB of them.
 */
Expected<JsonValue> tryParseJson(std::string_view text);

/**
 * Typed request-field accessors. The two-argument forms require the
 * field (InvalidArgument when missing or mistyped); the defaulted
 * forms treat an absent field as the default but still reject a
 * present field of the wrong type.
 */
Expected<std::string> tryGetString(const JsonValue &obj,
                                   std::string_view key);
Expected<std::string> tryGetString(const JsonValue &obj,
                                   std::string_view key,
                                   std::string dflt);
Expected<double> tryGetNumber(const JsonValue &obj,
                              std::string_view key);
Expected<double> tryGetNumber(const JsonValue &obj, std::string_view key,
                              double dflt);
Expected<bool> tryGetBool(const JsonValue &obj, std::string_view key,
                          bool dflt);

} // namespace ena::wire

#endif // ENA_SERVER_WIRE_HH
