#include "server/wire.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace ena::wire {

#if defined(__x86_64__)
static_assert(sizeof(JsonValue) <= 40, "JsonValue's comment gives its size");
#endif

JsonValue &
JsonValue::set(std::string key, JsonValue value)
{
    if (JsonValue *seen = find(key))
        *seen = std::move(value);
    else if (Members *m = std::get_if<Members>(&v_))
        m->emplace_back(std::move(key), std::move(value));
    else
        v_.emplace<Members>().emplace_back(std::move(key), std::move(value));
    return *this;
}

JsonValue *
JsonValue::find(std::string_view key)
{
    if (Members *m = std::get_if<Members>(&v_)) {
        for (Member &kv : *m) {
            if (kv.first == key)
                return &kv.second;
        }
    }
    return nullptr;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    return const_cast<JsonValue *>(this)->find(key);
}

JsonValue &
JsonValue::push(JsonValue value)
{
    if (Elements *e = std::get_if<Elements>(&v_))
        e->push_back(std::move(value));
    else
        v_.emplace<Elements>().push_back(std::move(value));
    return *this;
}

std::size_t
JsonValue::size() const
{
    return kind() == Kind::Array ? elements().size() : members().size();
}

namespace {

void
writeEscaped(std::string_view s, std::string *out)
{
    out->push_back('"');
    // Append each run of characters that need no escape in one go.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out->append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\r': *out += "\\r"; break;
        case '\t': *out += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            *out += buf;
        }
        }
    }
    out->append(s.data() + run, s.size() - run);
    out->push_back('"');
}

void
writeNumber(double n, std::string *out)
{
    if (!std::isfinite(n)) {
        *out += "null";
        return;
    }
    // With no format and no precision, to_chars writes the shortest
    // text that reads back as the same bits (at most 24 bytes).
    char buf[32];
    out->append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
}

} // anonymous namespace

void
JsonWriter::separate()
{
    if (out_->empty())
        return;
    const char last = out_->back();
    if (last != '{' && last != '[' && last != ':')
        out_->push_back(',');
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_->push_back('{');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_->push_back('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_->push_back('[');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_->push_back(']');
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate();
    writeEscaped(k, out_);
    out_->push_back(':');
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    *out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool b)
{
    separate();
    *out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::number(double n)
{
    separate();
    writeNumber(n, out_);
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    separate();
    writeEscaped(s, out_);
    return *this;
}

JsonWriter &
JsonWriter::value(const JsonValue &v)
{
    switch (v.kind()) {
    case JsonValue::Kind::Null: return null();
    case JsonValue::Kind::Bool: return boolean(v.boolean());
    case JsonValue::Kind::Number: return number(v.number());
    case JsonValue::Kind::String: return string(v.str());
    case JsonValue::Kind::Array:
        beginArray();
        for (const JsonValue &e : v.elements())
            value(e);
        return endArray();
    case JsonValue::Kind::Object:
        beginObject();
        for (const auto &[k, member] : v.members())
            key(k).value(member);
        return endObject();
    }
    return *this;
}

std::string
JsonValue::dump() const
{
    std::string out;
    JsonWriter(&out).value(*this);
    return out;
}

/**
 * Recursive-descent JSON parser over a string_view cursor. Values are
 * parsed in place into their destination, and the first error is kept
 * in error_. An array or object parses each element or member straight
 * into its slot in the container: a nested container is another
 * vector, so a nested parse never moves the slot it fills.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    Expected<JsonValue>
    parse()
    {
        JsonValue v;
        if (!parseValue(0, &v))
            return error_;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
            return error_;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 100;
    /** The most members one object may hold: each new key is looked up
     *  among the members before it, so this bounds that scan. */
    static constexpr std::size_t kMaxMembers = 256;
    /** The most members an object reserves before it is parsed. */
    static constexpr std::size_t kMaxReserved = 64;

    /** Record the error at the cursor; false, for `return fail(...)`. */
    bool
    fail(const std::string &what)
    {
        error_ = Status::parseError("JSON: ", what, " at byte ", pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    /** Parse one value into @p out, a default (null) JsonValue. */
    bool
    parseValue(int depth, JsonValue *out)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(depth, out);
        if (c == '[')
            return parseArray(depth, out);
        if (c == '"')
            return parseString(&out->v_.emplace<std::string>());
        if (consumeWord("true") || consumeWord("false")) {
            out->v_ = c == 't';
            return true;
        }
        if (consumeWord("null"))
            return true;
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return fail(std::string("unexpected character '") + c + "'");
    }

    bool
    parseNumber(JsonValue *out)
    {
        std::size_t start = pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' ||
                c == '.' || c == 'e' || c == 'E') {
                ++pos_;
            } else {
                break;
            }
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double v = 0.0;
        const std::from_chars_result r = std::from_chars(first, last, v);
        if (r.ptr != last ||
            (r.ec != std::errc() && r.ec != std::errc::result_out_of_range))
            return fail("bad number '" + std::string(first, last) + "'");
        if (r.ec == std::errc::result_out_of_range) {
            // from_chars reports overflow and underflow without a
            // value; strtod rounds them to +-inf and +-0 as JSON
            // readers expect. Only such literals take this copy.
            const std::string tok(first, last);
            v = std::strtod(tok.c_str(), nullptr);
        }
        out->v_ = v;
        return true;
    }

    /** Parse a string token, appending its characters to @p out. */
    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        for (;;) {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character in one append.
            const std::size_t run = pos_;
            while (pos_ < text_.size()) {
                const unsigned char u = text_[pos_];
                if (u == '"' || u == '\\' || u < 0x20)
                    break;
                ++pos_;
            }
            out->append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("raw control character in string");
            if (pos_ >= text_.size())
                return fail("dangling escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // not needed by this protocol; a lone surrogate encodes
                // as its raw code point).
                if (code < 0x80) {
                    out->push_back(char(code));
                } else if (code < 0x800) {
                    out->push_back(char(0xC0 | (code >> 6)));
                    out->push_back(char(0x80 | (code & 0x3F)));
                } else {
                    out->push_back(char(0xE0 | (code >> 12)));
                    out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
                    out->push_back(char(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                return fail(std::string("bad escape '\\") + e + "'");
            }
        }
    }

    bool
    parseArray(int depth, JsonValue *out)
    {
        consume('[');
        JsonValue::Elements &arr = out->v_.emplace<JsonValue::Elements>();
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            if (!parseValue(depth + 1, &arr.emplace_back()))
                return false;
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(int depth, JsonValue *out)
    {
        consume('{');
        JsonValue::Members &obj = out->v_.emplace<JsonValue::Members>();
        skipWs();
        if (consume('}'))
            return true;
        // Objects side by side usually have the same keys (sweep
        // points do): one allocation for each instead of five. Only an
        // object at the depth of the last one finished reserves, so
        // each unused reservation follows a large object of its own.
        if (depth == lastObjectDepth_)
            obj.reserve(std::min(lastObjectSize_, kMaxReserved));
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            // A repeated key keeps its first position and takes the
            // last value, as JsonValue::set() does.
            JsonValue *slot = out->find(key);
            if (slot) {
                slot->v_.emplace<std::monostate>();
            } else {
                if (obj.size() == kMaxMembers)
                    return fail("too many object members");
                slot = &obj.emplace_back(std::piecewise_construct,
                                         std::forward_as_tuple(std::move(key)),
                                         std::forward_as_tuple())
                            .second;
            }
            if (!parseValue(depth + 1, slot))
                return false;
            skipWs();
            if (consume('}')) {
                lastObjectSize_ = obj.size();
                lastObjectDepth_ = depth;
                return true;
            }
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    Status error_;
    /** Members and depth of the last object parsed: the next object
     *  at that depth reserves as many. */
    std::size_t lastObjectSize_ = 0;
    int lastObjectDepth_ = -1;
};

Expected<JsonValue>
tryParseJson(std::string_view text)
{
    return JsonParser(text).parse();
}

Expected<std::string>
tryGetString(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return Status::invalidArgument("missing field '", key, "'");
    if (!v->isString())
        return Status::invalidArgument("field '", key,
                                       "' must be a string");
    return v->str();
}

Expected<std::string>
tryGetString(const JsonValue &obj, std::string_view key,
             std::string dflt)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isString())
        return Status::invalidArgument("field '", key,
                                       "' must be a string");
    return v->str();
}

Expected<double>
tryGetNumber(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return Status::invalidArgument("missing field '", key, "'");
    if (!v->isNumber())
        return Status::invalidArgument("field '", key,
                                       "' must be a number");
    return v->number();
}

Expected<double>
tryGetNumber(const JsonValue &obj, std::string_view key, double dflt)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isNumber())
        return Status::invalidArgument("field '", key,
                                       "' must be a number");
    return v->number();
}

Expected<bool>
tryGetBool(const JsonValue &obj, std::string_view key, bool dflt)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isBool())
        return Status::invalidArgument("field '", key,
                                       "' must be a boolean");
    return v->boolean();
}

} // namespace ena::wire
