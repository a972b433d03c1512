/**
 * @file
 * Unit tests for the server's hand-rolled JSON (server/wire.hh): exact
 * double round-trips (the wire protocol's bit-identity guarantee), the
 * number codec's shortest spelling and its accept/reject set to
 * strtod's, string escaping, parser error paths, the typed accessors,
 * the parser's memory after failed and large documents, the heap a
 * parsed tree holds, and request decoding (JSON and config text) on
 * several threads at once.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "common/node_config_io.hh"
#include "server/wire.hh"
#include "util/config.hh"
#include "util/rng.hh"

using namespace ena;
using wire::JsonValue;
using wire::tryParseJson;

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

TEST(Wire, ScalarsRoundTrip)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");

    auto v = tryParseJson(" true ");
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v->isBool());
    EXPECT_TRUE(v->boolean());
}

/**
 * Doubles the number codec must carry exactly: edge cases, then
 * finite doubles of every magnitude and sign from random bit patterns.
 */
std::vector<double>
numberCases()
{
    std::vector<double> cases = {
        0.0,
        -0.0,
        1.0 / 3.0,
        0.10666666666666667,
        3027202472086.2437,
        1e-308,
        1.7976931348623157e308,
        -123.456e-7,
        2632.3499757271684,
        42.0,
        5e-324,                   // smallest subnormal
        2.2250738585072009e-308,  // largest subnormal
        2.2250738585072014e-308,  // smallest normal
        9007199254740992.0,       // 2^53
        9007199254740994.0,       // 2^53 + 2
        18014398509481984.0,      // 2^54
        1152921504606846976.0,    // 2^60
        9223372036854775808.0,    // 2^63
        18446744073709551616.0,   // 2^64
        1e17,
        1e21,
        1e22,
        -1e22,
        123456789012345678.0,
    };
    Rng rng(13);
    while (cases.size() < 100000) {
        std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        if (std::isfinite(d))
            cases.push_back(d);
    }
    return cases;
}

TEST(Wire, DoublesRoundTripBitExactly)
{
    for (double d : numberCases()) {
        std::string text = JsonValue(d).dump();
        auto parsed = tryParseJson(text);
        ASSERT_TRUE(parsed.ok()) << text;
        ASSERT_TRUE(parsed->isNumber());
        ASSERT_EQ(bitsOf(parsed->number()), bitsOf(d))
            << "through \"" << text << "\"";
    }
}

TEST(Wire, NumbersSerializeInTheirShortestForm)
{
    const std::pair<double, const char *> cases[] = {
        {0.1, "0.1"},
        {0.925, "0.925"},
        {1e300, "1e+300"},
        {5e-324, "5e-324"},
        {-0.0, "-0"},
        {1.0 / 3.0, "0.3333333333333333"},
        {1e15, "1e+15"},
        {123456.0, "123456"},
        {1234567890123456.8, "1234567890123456.8"},
    };
    for (const auto &[d, want] : cases)
        EXPECT_EQ(JsonValue(d).dump(), want);
}

TEST(Wire, OneSignificantDigitFewerNoLongerReadsBackTheSameBits)
{
    for (double d : numberCases()) {
        const std::string text = JsonValue(d).dump();
        // The significant digits run from the first to the last
        // nonzero digit of the mantissa.
        const std::string mantissa = text.substr(0, text.find('e'));
        const std::size_t first = mantissa.find_first_of("123456789");
        if (first == std::string::npos)
            continue;   // +-0
        int digits = 0;
        for (std::size_t i = first;
             i <= mantissa.find_last_of("123456789"); ++i)
            digits += mantissa[i] != '.';
        if (digits == 1)
            continue;
        char shorter[40];
        std::snprintf(shorter, sizeof shorter, "%.*e", digits - 2, d);
        const bool same = bitsOf(std::strtod(shorter, nullptr)) == bitsOf(d);
        // Shortest counts characters: 2^60 reads back from
        // 1.152921504606847e+18, which is longer than its 19 digits,
        // and of texts as long to_chars writes the closest.
        const bool integer = text.find_first_of(".e") == std::string::npos;
        ASSERT_TRUE(!same || (integer && std::strlen(shorter) >= text.size()))
            << text << " reads back from " << shorter;
    }
}

TEST(Wire, OutOfRangeLiteralsParseToInfinityAndZero)
{
    auto big = tryParseJson("1e999");
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big->number(), std::numeric_limits<double>::infinity());

    auto negBig = tryParseJson("-1e999");
    ASSERT_TRUE(negBig.ok());
    EXPECT_EQ(negBig->number(), -std::numeric_limits<double>::infinity());

    auto tiny = tryParseJson("1e-400");
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(bitsOf(tiny->number()), bitsOf(0.0));

    auto negTiny = tryParseJson("-1e-400");
    ASSERT_TRUE(negTiny.ok());
    EXPECT_EQ(bitsOf(negTiny->number()), bitsOf(-0.0));
}

TEST(Wire, MalformedNumbersKeepTheirMessages)
{
    const std::pair<const char *, const char *> cases[] = {
        {"1e", "JSON: bad number '1e' at byte 2"},
        {"1e+", "JSON: bad number '1e+' at byte 3"},
        {"--1", "JSON: bad number '--1' at byte 3"},
        {"1-2", "JSON: bad number '1-2' at byte 3"},
        {"-", "JSON: bad number '-' at byte 1"},
        {"[1,2e]", "JSON: bad number '2e' at byte 5"},
    };
    for (const auto &[text, message] : cases) {
        auto v = tryParseJson(text);
        ASSERT_FALSE(v.ok()) << text;
        EXPECT_EQ(v.status().code(), ErrorCode::ParseError) << text;
        EXPECT_EQ(v.status().message(), message) << text;
    }
}

TEST(Wire, NumberTokensParseExactlyAsStrtodReadsThem)
{
    // Every token of up to four characters the number scanner takes
    // (a '-' or digit, then [0-9+-.eE]): accepted exactly when strtod
    // consumes all of it, and then with strtod's bits.
    const std::string alphabet = "0123456789+-.eE";
    std::vector<std::string> tokens;
    for (char first : std::string("-0123456789"))
        tokens.emplace_back(1, first);
    for (std::size_t begin = 0, len = 1; len < 4; ++len) {
        const std::size_t end = tokens.size();
        for (std::size_t i = begin; i < end; ++i) {
            for (char c : alphabet)
                tokens.push_back(tokens[i] + c);
        }
        begin = end;
    }
    for (const std::string &tok : tokens) {
        char *stop = nullptr;
        const double want = std::strtod(tok.c_str(), &stop);
        const bool valid = stop == tok.c_str() + tok.size();
        auto got = tryParseJson(tok);
        ASSERT_EQ(got.ok(), valid) << tok;
        if (valid) {
            EXPECT_EQ(bitsOf(got->number()), bitsOf(want)) << tok;
        }
    }
}

TEST(Wire, NonFiniteNumbersSerializeAsNull)
{
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
}

TEST(Wire, ObjectsPreserveInsertionOrder)
{
    JsonValue o = JsonValue::object();
    o.set("z", 1);
    o.set("a", 2);
    o.set("z", 3); // replace keeps position
    EXPECT_EQ(o.dump(), "{\"z\":3,\"a\":2}");
    ASSERT_NE(o.find("a"), nullptr);
    EXPECT_EQ(o.find("a")->number(), 2.0);
    EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(Wire, RepeatedKeysKeepTheFirstPositionAndTheLastValue)
{
    auto flat = tryParseJson("{\"a\":1,\"b\":2,\"a\":3}");
    ASSERT_TRUE(flat.ok());
    EXPECT_EQ(flat->dump(), "{\"a\":3,\"b\":2}");
    EXPECT_EQ(flat->size(), 2u);

    // Per object, at every depth; a replaced value may change kind.
    auto nested = tryParseJson(
        "{\"x\":{\"k\":1,\"j\":[],\"k\":[1,{\"k\":2,\"k\":3}]},"
        "\"y\":2,\"x\":{\"z\":null,\"z\":\"s\"}}");
    ASSERT_TRUE(nested.ok());
    EXPECT_EQ(nested->dump(), "{\"x\":{\"z\":\"s\"},\"y\":2}");
    auto inner = tryParseJson("[{\"k\":1,\"j\":[],\"k\":[{\"k\":2,\"k\":3}]}]");
    ASSERT_TRUE(inner.ok());
    EXPECT_EQ(inner->dump(), "[{\"k\":[{\"k\":3}],\"j\":[]}]");

    // A container replaced by a scalar, in objects of different sizes
    // side by side.
    auto sizes = tryParseJson(
        R"([{"a":1},{"a":{"x":[1,2]},"b":2,"a":3},{"c":[]}])");
    ASSERT_TRUE(sizes.ok());
    EXPECT_EQ(sizes->dump(), R"([{"a":1},{"a":3,"b":2},{"c":[]}])");
}

TEST(Wire, WriterMatchesDumpForEveryKind)
{
    // One document with every kind, escapes, non-finite numbers and
    // empty containers, built as a tree and written directly: both
    // must give these bytes.
    const std::string want =
        "{\"null\":null,\"t\":true,\"f\":false,\"n\":-0.5,"
        "\"big\":1e+300,\"inf\":null,\"nan\":null,"
        "\"s\":\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\xc3\xa9/\","
        "\"e\\\"k\":\"\",\"eo\":{},\"ea\":[],"
        "\"a\":[1,[],{},[[]],{\"x\":[null,\"y\"]},\"\"],"
        "\"o\":{\"in\":{\"a\":[{}]}}}";

    JsonValue tree = JsonValue::object();
    tree.set("null", JsonValue());
    tree.set("t", true);
    tree.set("f", false);
    tree.set("n", -0.5);
    tree.set("big", 1e300);
    tree.set("inf", std::numeric_limits<double>::infinity());
    tree.set("nan", std::nan(""));
    tree.set("s", std::string("q\"b\\n\nr\rt\t\x01\x1f\xc3\xa9/"));
    tree.set("e\"k", "");
    tree.set("eo", JsonValue::object());
    tree.set("ea", JsonValue::array());
    JsonValue x = JsonValue::object();
    x.set("x", JsonValue::array().push(JsonValue()).push("y"));
    tree.set("a", JsonValue::array()
                      .push(1)
                      .push(JsonValue::array())
                      .push(JsonValue::object())
                      .push(JsonValue::array().push(JsonValue::array()))
                      .push(std::move(x))
                      .push(""));
    JsonValue in = JsonValue::object();
    in.set("a", JsonValue::array().push(JsonValue::object()));
    JsonValue o = JsonValue::object();
    o.set("in", std::move(in));
    tree.set("o", std::move(o));
    EXPECT_EQ(tree.dump(), want);

    std::string line;
    wire::JsonWriter w(&line);
    w.beginObject()
        .key("null").null()
        .key("t").boolean(true)
        .key("f").boolean(false)
        .key("n").number(-0.5)
        .key("big").number(1e300)
        .key("inf").number(std::numeric_limits<double>::infinity())
        .key("nan").number(std::nan(""))
        .key("s").string("q\"b\\n\nr\rt\t\x01\x1f\xc3\xa9/")
        .key("e\"k").string("")
        .key("eo").beginObject().endObject()
        .key("ea").beginArray().endArray()
        .key("a").beginArray()
        .number(1)
        .beginArray().endArray()
        .beginObject().endObject()
        .beginArray().beginArray().endArray().endArray()
        .beginObject().key("x").beginArray().null().string("y").endArray()
        .endObject()
        .string("")
        .endArray()
        .key("o").beginObject().key("in").beginObject().key("a")
        .beginArray().beginObject().endObject().endArray()
        .endObject().endObject()
        .endObject();
    EXPECT_EQ(line, want);

    // The separator comes from the last byte of the string, so a
    // writer continues whatever JSON text it is given.
    std::string partial = "[{\"k\":1}";
    wire::JsonWriter(&partial).value(tree).number(2).endArray();
    EXPECT_EQ(partial, "[{\"k\":1}," + want + ",2]");
}

TEST(Wire, MalformedStringsKeepTheirMessages)
{
    const std::pair<std::string, const char *> cases[] = {
        {"\"abc", "JSON: unterminated string at byte 4"},
        {"\"ab\x01" "c\"", "JSON: raw control character in string at byte 4"},
        {"\"ab\\", "JSON: dangling escape at byte 4"},
        {"\"ab\\q\"", "JSON: bad escape '\\q' at byte 5"},
        {"\"ab\\u12zz\"", "JSON: bad \\u escape digit at byte 8"},
        {"\"ab\\u12", "JSON: truncated \\u escape at byte 5"},
        {"{\"k\\n\x02\":1}", "JSON: raw control character in string at byte 6"},
    };
    for (const auto &[text, message] : cases) {
        auto v = tryParseJson(text);
        ASSERT_FALSE(v.ok()) << text;
        EXPECT_EQ(v.status().code(), ErrorCode::ParseError) << text;
        EXPECT_EQ(v.status().message(), message) << text;
    }
}

TEST(Wire, NestedDocumentRoundTrips)
{
    const std::string text =
        "{\"op\":\"sweep\",\"points\":[{\"v\":1.5},{\"v\":2.5}],"
        "\"ok\":true,\"note\":null}";
    auto v = tryParseJson(text);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->dump(), text);
    const JsonValue *points = v->find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->size(), 2u);
    EXPECT_EQ(points->at(1).find("v")->number(), 2.5);
}

TEST(Wire, StringEscapes)
{
    JsonValue s(std::string("a\"b\\c\nd\te\x01" "f"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    auto parsed = tryParseJson(s.dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->str(), "a\"b\\c\nd\te\x01" "f");

    auto unicode = tryParseJson("\"\\u0041\\u00e9\"");
    ASSERT_TRUE(unicode.ok());
    EXPECT_EQ(unicode->str(), "A\xc3\xa9");
}

TEST(Wire, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(tryParseJson("").ok());
    EXPECT_FALSE(tryParseJson("{").ok());
    EXPECT_FALSE(tryParseJson("{\"a\":}").ok());
    EXPECT_FALSE(tryParseJson("[1,]").ok());
    EXPECT_FALSE(tryParseJson("treu").ok());
    EXPECT_FALSE(tryParseJson("1 2").ok());
    EXPECT_FALSE(tryParseJson("\"unterminated").ok());
    EXPECT_FALSE(tryParseJson("{\"a\":1}x").ok());

    auto bad = tryParseJson("{\"a\" 1}");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::ParseError);
}

TEST(Wire, ParserRejectsDeepNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(tryParseJson(deep).ok());
}

// Each new key is looked up among the keys before it, so an object's
// parse is quadratic in its size: the parser caps it at 256 members,
// 16 times the largest object the protocol sends.
TEST(Wire, ParserRejectsAnObjectOfMoreThan256Members)
{
    auto object = [](int members) {
        std::string text = "{";
        for (int i = 0; i < members; ++i)
            text += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
        return text + "}";
    };
    auto full = tryParseJson(object(256));
    ASSERT_TRUE(full.ok()) << full.status().toString();
    EXPECT_EQ(full->members().size(), 256u);
    // A repeated key adds no member.
    std::string repeated = object(256);
    repeated.insert(repeated.size() - 1, ",\"k0\":1");
    EXPECT_TRUE(tryParseJson(repeated).ok());

    auto over = tryParseJson(object(257));
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), ErrorCode::ParseError);
    EXPECT_NE(over.status().message().find("too many object members"),
              std::string::npos)
        << over.status().message();
}

TEST(Wire, TypedAccessors)
{
    auto obj = tryParseJson("{\"s\":\"x\",\"n\":2.5,\"b\":true}");
    ASSERT_TRUE(obj.ok());

    EXPECT_EQ(wire::tryGetString(*obj, "s").value(), "x");
    EXPECT_EQ(wire::tryGetNumber(*obj, "n").value(), 2.5);
    EXPECT_TRUE(wire::tryGetBool(*obj, "b", false).value());

    // Missing: required form errors, defaulted form falls back.
    EXPECT_EQ(wire::tryGetString(*obj, "nope").status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(wire::tryGetString(*obj, "nope", "dflt").value(), "dflt");
    EXPECT_EQ(wire::tryGetNumber(*obj, "nope", 7.0).value(), 7.0);

    // Present but mistyped: error even with a default.
    EXPECT_FALSE(wire::tryGetNumber(*obj, "s", 1.0).ok());
    EXPECT_FALSE(wire::tryGetBool(*obj, "n", true).ok());
}

TEST(Wire, AFailedParseLeavesTheNextParseOnItsThreadUnchanged)
{
    const std::string next = R"({"a":[1,{"b":[2,3]}],"c":{"d":"e"}})";
    for (const char *broken : {R"({"a":[1,{"b":[2,3)",
                               R"([{"x":1},{"y":[true,)",
                               R"({"k":{"l":{"m":)", R"([[[[1,2],[3)"}) {
        ASSERT_FALSE(tryParseJson(broken).ok()) << broken;
        Expected<JsonValue> v = tryParseJson(next);
        ASSERT_TRUE(v.ok()) << v.status().toString();
        EXPECT_EQ(v->dump(), next) << "after " << broken;
        EXPECT_EQ(v->size(), 2u);
        EXPECT_EQ(v->find("a")->size(), 2u);
    }
}

#if defined(__GLIBC__)
/** Bytes this process has allocated and not freed, by glibc's count. */
long long
heapInUse()
{
    const struct mallinfo2 m = mallinfo2();
    return static_cast<long long>(m.uordblks + m.hblkhd);
}
#endif

TEST(Wire, AThreadKeepsABoundedParserMemoryAfterA1MiBDocument)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "counts heap bytes with glibc's mallinfo2";
#else
    // About 131,000 elements: 5 MiB of values in one array.
    std::string doc = "[";
    while (doc.size() < (1u << 20))
        doc += "1234567,";
    doc.back() = ']';
    const std::string cut = doc.substr(0, doc.size() - 1);
    long long kept[2] = {0, 0};
    std::thread([&] {
        ASSERT_TRUE(tryParseJson("[0]").ok());   // the thread's heap
        for (int i = 0; i < 2; ++i) {
            const long long before = heapInUse();
            EXPECT_EQ(tryParseJson(i == 0 ? doc : cut).ok(), i == 0);
            kept[i] = heapInUse() - before;
        }
    }).join();
    // A parse keeps nothing once its document is gone; the bound is
    // slack for the allocator's own caches.
    EXPECT_LT(kept[0], 16 * 1024) << "after a parsed document";
    EXPECT_LT(kept[1], 16 * 1024) << "after a failed document";
#endif
}

TEST(Wire, AParsedTreeHoldsASmallMultipleOfItsDocument)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "counts heap bytes with glibc's mallinfo2";
#else
    // A 64-key object, a chain of 97 one-member objects, another
    // 64-key object and a one-member sibling, over and over up to
    // 1 MiB. A one-member object is 5-7 bytes of text and a 72-byte
    // member, and the tree holds about 18 times the document. Were
    // each link of the chain to reserve the 64 members of the large
    // object before it, the tree would hold about 300 times.
    std::string big = "{";
    for (int k = 0; k < 64; ++k)
        big += "\"k" + std::to_string(k) + "\":0,";
    big.back() = '}';
    std::string chain;
    for (int d = 0; d < 97; ++d)
        chain += "{\"\":";
    chain += "0" + std::string(97, '}');
    const std::string unit = big + "," + chain + "," + big + ",{\"\":0},";
    std::string doc = "[";
    while (doc.size() < (1u << 20))
        doc += unit;
    doc.back() = ']';

    const long long before = heapInUse();
    Expected<JsonValue> tree = tryParseJson(doc);
    const long long held = heapInUse() - before;
    ASSERT_TRUE(tree.ok()) << tree.status().toString();
    EXPECT_EQ(tree->size(), 4 * ((doc.size() - 1) / unit.size()));
    EXPECT_LT(held, 32 * static_cast<long long>(doc.size()))
        << "document " << doc.size() << " bytes";
#endif
}

/**
 * Decode every input the way a server reader thread does: the request
 * configs through Config and the node field list, the JSON lines
 * through the parser. Each result is its canonical text or its error.
 */
std::vector<std::string>
decodeAll(const std::vector<std::string> &configs,
          const std::vector<std::string> &lines)
{
    std::vector<std::string> out;
    for (const std::string &text : configs) {
        Expected<Config> cfg = Config::tryFromString(text, "request");
        if (!cfg.ok()) {
            out.push_back(cfg.status().toString());
            continue;
        }
        Expected<NodeConfig> node = tryNodeConfigFromConfig(*cfg);
        out.push_back(cfg->toString() +
                      (node.ok() ? nodeConfigToConfig(*node).toString()
                                 : node.status().toString()));
    }
    for (const std::string &line : lines) {
        Expected<JsonValue> v = tryParseJson(line);
        out.push_back(v.ok() ? v->dump() : v.status().toString());
    }
    return out;
}

TEST(WireConfigDecode, FourThreadsDecodeLikeOneThread)
{
    const std::vector<std::string> configs = {
        "ehp.cus = 256\nehp.freq_ghz = 0.925\nehp.bw_tbs = 3.5\n"
        "opts.ntc = true\nopts.lp_links = true\n",
        "ehp.cus = 384\r\nehp.freq_ghz = 1.25 # turbo\r\n"
        "extmem.dram_gb = 768\r\n",
        "ehp.cus = 320\nehp.bw_tbs = fast\n",
        "ehp.cuz = 320\n",
        "ehp.cus = 0\n",
        "just a line\n",
        "cluster.nodes = 100\nehp.freq_ghz = 0.9333333333333333\n",
    };
    std::string sweep = R"({"id":7,"ok":true,"result":{"points":[)";
    for (int i = 0; i < 50; ++i) {
        if (i)
            sweep += ',';
        sweep += R"({"value":)";
        sweep += std::to_string(i);
        sweep += R"(,"flops":1.2345678901234567e+15})";
    }
    sweep += "]}}";
    const std::vector<std::string> lines = {
        R"({"op":"eval_node","app":"lulesh",)"
        R"("config":"ehp.cus = 256\n","id":1})",
        R"({"id":2,"ok":true,"result":{"app":"LULESH","cus":256,)"
        R"("freq_ghz":0.92500000000000004,"memory_bound":true}})",
        sweep,
        R"({"id":3,"ok":false,)"
        R"("error":{"code":"parse_error","message":"x\"y"}})",
        R"({"op":"eval_node","config":[1,2,{"a":)",
        R"([[1,2],[3,4],{"k":[5,{"l":6}]}])",
    };
    const std::vector<std::string> serial = decodeAll(configs, lines);

    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    std::atomic<int> ready{0};
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            for (int r = 0; r < kRounds; ++r)
                mismatches[t] += decodeAll(configs, lines) != serial;
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

} // anonymous namespace
