#include "server/wire.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ena::wire {

JsonValue &
JsonValue::set(std::string key, JsonValue value)
{
    kind_ = Kind::Object;
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(value);
            return *this;
        }
    }
    obj_.emplace_back(std::move(key), std::move(value));
    return *this;
}

JsonValue *
JsonValue::find(std::string_view key)
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (auto &kv : obj_) {
        if (kv.first == key)
            return &kv.second;
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
    kind_ = Kind::Array;
    arr_.push_back(std::move(value));
    return *this;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    return 0;
}

namespace {

void
writeEscaped(const std::string &s, std::string *out)
{
    out->push_back('"');
    for (char c : s) {
        switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\r': *out += "\\r"; break;
        case '\t': *out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                *out += buf;
            } else {
                out->push_back(c);
            }
        }
    }
    out->push_back('"');
}

void
writeNumber(double n, std::string *out)
{
    if (!std::isfinite(n)) {
        *out += "null";
        return;
    }
    // General format at precision 17 is %.17g by definition, and 17
    // significant digits round-trip every finite double exactly.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, n, std::chars_format::general, 17);
    out->append(buf, r.ptr);
}

} // anonymous namespace

void
JsonValue::writeTo(std::string *out) const
{
    switch (kind_) {
    case Kind::Null: *out += "null"; break;
    case Kind::Bool: *out += bool_ ? "true" : "false"; break;
    case Kind::Number: writeNumber(num_, out); break;
    case Kind::String: writeEscaped(str_, out); break;
    case Kind::Array: {
        out->push_back('[');
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out->push_back(',');
            arr_[i].writeTo(out);
        }
        out->push_back(']');
        break;
    }
    case Kind::Object: {
        out->push_back('{');
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out->push_back(',');
            writeEscaped(obj_[i].first, out);
            out->push_back(':');
            obj_[i].second.writeTo(out);
        }
        out->push_back('}');
        break;
    }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    writeTo(&out);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Expected<JsonValue>
    parse()
    {
        ENA_ASSIGN_OR_RETURN(JsonValue v, parseValue(0));
        skipWs();
        if (pos_ != text_.size())
            return err("trailing characters after JSON document");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 100;

    Status
    err(const std::string &what) const
    {
        return Status::parseError("JSON: ", what, " at byte ", pos_);
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

    Expected<JsonValue>
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            return err("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return err("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"') {
            ENA_ASSIGN_OR_RETURN(std::string s, parseString());
            return JsonValue(std::move(s));
        }
        if (consumeWord("true"))
            return JsonValue(true);
        if (consumeWord("false"))
            return JsonValue(false);
        if (consumeWord("null"))
            return JsonValue();
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        return err(std::string("unexpected character '") + c + "'");
    }

    Expected<JsonValue>
    parseNumber()
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
            return err("bad number '" + std::string(first, last) + "'");
        if (r.ec == std::errc::result_out_of_range) {
            // from_chars reports overflow and underflow without a
            // value; strtod rounds them to +-inf and +-0 as JSON
            // readers expect. Only such literals take this copy.
            const std::string tok(first, last);
            v = std::strtod(tok.c_str(), nullptr);
        }
        return JsonValue(v);
    }

    Expected<std::string>
    parseString()
    {
        if (!consume('"'))
            return err("expected '\"'");
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                return err("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return err("dangling escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return err("truncated \\u escape");
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
                        return err("bad \\u escape digit");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // not needed by this protocol; a lone surrogate encodes
                // as its raw code point).
                if (code < 0x80) {
                    out.push_back(char(code));
                } else if (code < 0x800) {
                    out.push_back(char(0xC0 | (code >> 6)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(char(0xE0 | (code >> 12)));
                    out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                return err(std::string("bad escape '\\") + e + "'");
            }
        }
        return err("unterminated string");
    }

    Expected<JsonValue>
    parseArray(int depth)
    {
        consume('[');
        JsonValue arr = JsonValue::array();
        skipWs();
        if (consume(']'))
            return arr;
        for (;;) {
            ENA_ASSIGN_OR_RETURN(JsonValue v, parseValue(depth + 1));
            arr.push(std::move(v));
            skipWs();
            if (consume(']'))
                return arr;
            if (!consume(','))
                return err("expected ',' or ']' in array");
        }
    }

    Expected<JsonValue>
    parseObject(int depth)
    {
        consume('{');
        JsonValue obj = JsonValue::object();
        skipWs();
        if (consume('}'))
            return obj;
        for (;;) {
            skipWs();
            ENA_ASSIGN_OR_RETURN(std::string key, parseString());
            skipWs();
            if (!consume(':'))
                return err("expected ':' after object key");
            ENA_ASSIGN_OR_RETURN(JsonValue v, parseValue(depth + 1));
            obj.set(std::move(key), std::move(v));
            skipWs();
            if (consume('}'))
                return obj;
            if (!consume(','))
                return err("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // anonymous namespace

Expected<JsonValue>
tryParseJson(std::string_view text)
{
    return Parser(text).parse();
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
