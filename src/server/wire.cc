#include "server/wire.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

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
    // General format at precision 17 is %.17g by definition, and 17
    // significant digits round-trip every finite double exactly.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, n, std::chars_format::general, 17);
    out->append(buf, r.ptr);
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

namespace {

/**
 * The container stacks of one thread's parses. Each document's parser
 * borrows them and leaves them empty, so a thread does not regrow them
 * for every document; a document that grew one past kKeptEntries gives
 * its memory back. Between documents a thread keeps at most
 * kKeptEntries * (sizeof(JsonValue) + sizeof(member)), 7 KiB on
 * x86-64.
 */
struct ParseStacks
{
    static constexpr std::size_t kKeptEntries = 32;

    std::vector<JsonValue> elements;
    std::vector<std::pair<std::string, JsonValue>> members;
};

thread_local ParseStacks parseStacks;

/** Empty @p stack; free its memory if it is past the kept size. */
template <typename Stack>
void
release(Stack &stack)
{
    stack.clear();
    if (stack.capacity() > ParseStacks::kKeptEntries)
        Stack().swap(stack);
}

} // anonymous namespace

/**
 * Recursive-descent JSON parser over a string_view cursor. Values are
 * parsed in place into their destination, and the first error is kept
 * in error_. Container members are parsed onto the thread's two stacks
 * and moved into their container once it is complete, so every array
 * and object is allocated once, at its final size. The destructor
 * hands the stacks back empty, also after a failed parse.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text)
        : text_(text), elements_(parseStacks.elements),
          members_(parseStacks.members)
    {
    }

    ~JsonParser()
    {
        release(elements_);
        release(members_);
    }

    JsonParser(const JsonParser &) = delete;
    JsonParser &operator=(const JsonParser &) = delete;

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
        if (c == '"') {
            out->kind_ = JsonValue::Kind::String;
            return parseString(&out->str_);
        }
        if (consumeWord("true") || consumeWord("false")) {
            out->kind_ = JsonValue::Kind::Bool;
            out->bool_ = c == 't';
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
        out->kind_ = JsonValue::Kind::Number;
        out->num_ = v;
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
        out->kind_ = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        const std::size_t base = elements_.size();
        for (;;) {
            // Parse into a local: nested containers grow elements_.
            JsonValue v;
            if (!parseValue(depth + 1, &v))
                return false;
            elements_.push_back(std::move(v));
            skipWs();
            if (consume(']'))
                break;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
        const auto first = elements_.begin() + std::ptrdiff_t(base);
        out->arr_.assign(std::make_move_iterator(first),
                         std::make_move_iterator(elements_.end()));
        elements_.erase(first, elements_.end());
        return true;
    }

    bool
    parseObject(int depth, JsonValue *out)
    {
        consume('{');
        out->kind_ = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        const std::size_t base = members_.size();
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue v;
            if (!parseValue(depth + 1, &v))
                return false;
            members_.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume('}'))
                break;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
        // A repeated key keeps its first position and takes the last
        // value, as JsonValue::set() does.
        const auto first = members_.begin() + std::ptrdiff_t(base);
        out->obj_.reserve(std::size_t(members_.end() - first));
        for (auto m = first; m != members_.end(); ++m) {
            JsonValue *seen = out->find(m->first);
            if (seen)
                *seen = std::move(m->second);
            else
                out->obj_.push_back(std::move(*m));
        }
        members_.erase(first, members_.end());
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    Status error_;
    std::vector<JsonValue> &elements_;
    std::vector<std::pair<std::string, JsonValue>> &members_;
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
