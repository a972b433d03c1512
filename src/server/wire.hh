/**
 * @file
 * Hand-rolled minimal JSON for the evaluation server's wire protocol.
 * No external dependencies; just enough JSON for newline-delimited
 * request/response objects.
 *
 * Numbers are written by std::to_chars in the shortest form that reads
 * back as the same double (0.925, not 0.92500000000000004) and read by
 * std::from_chars, which rounds correctly, so every finite double
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
#include <variant>
#include <vector>

#include "util/status.hh"

namespace ena::wire {

class JsonParser;

/**
 * A JSON value: null, bool, number, string, array, or object. One
 * variant holds it, 40 bytes on x86-64 (an object member is 72). On a
 * value of another kind, str(), elements() and members() are empty,
 * number() is 0 and boolean() is false.
 */
class JsonValue
{
  public:
    /** In the order of the variant's alternatives. */
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;
    JsonValue(bool b) : v_(b) {}
    JsonValue(double n) : v_(n) {}
    JsonValue(int n) : v_(double(n)) {}
    JsonValue(long n) : v_(double(n)) {}
    JsonValue(unsigned long n) : v_(double(n)) {}
    JsonValue(const char *s) : v_(std::string(s)) {}
    JsonValue(std::string s) : v_(std::move(s)) {}

    static JsonValue object() { JsonValue v; v.v_ = Members(); return v; }
    static JsonValue array() { JsonValue v; v.v_ = Elements(); return v; }

    Kind kind() const { return Kind(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }

    bool boolean() const { return isBool() && std::get<bool>(v_); }
    double number() const { return isNumber() ? std::get<double>(v_) : 0; }
    const std::string &str() const { return get<std::string>(); }

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
    const JsonValue &at(std::size_t i) const { return elements()[i]; }

    const std::vector<Member> &members() const { return get<Members>(); }
    const std::vector<JsonValue> &elements() const { return get<Elements>(); }

    /** Compact one-line serialization (no embedded newlines). */
    std::string dump() const;

  private:
    friend class JsonParser;   // parses into the variant in place

    using Elements = std::vector<JsonValue>;
    using Members = std::vector<Member>;

    /** The alternative @p T, or an empty one when v_ holds another. */
    template <typename T>
    const T &
    get() const
    {
        static const T empty;
        const T *v = std::get_if<T>(&v_);
        return v ? *v : empty;
    }

    std::variant<std::monostate, bool, double, std::string, Elements,
                 Members>
        v_;
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
    /** Shortest text that reads back as @p n; non-finite as null. */
    JsonWriter &number(double n);
    JsonWriter &string(std::string_view s);
    JsonWriter &value(const JsonValue &v);

  private:
    void separate();

    std::string *out_;
};

/**
 * Parse one JSON document (leading/trailing whitespace allowed). Each
 * value is parsed straight into its place in the tree. A document
 * nested more than 100 deep, or with an object of more than 256
 * distinct keys, is a parse error.
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
