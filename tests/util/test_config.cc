/**
 * @file
 * Unit tests for the Config key-value store.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "util/config.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace ena;

TEST(Config, ParseBasicPairs)
{
    Config c = *Config::tryFromString("a = 1\nb.x = hello\n");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(*c.tryGetInt("a"), 1);
    EXPECT_EQ(*c.tryGetString("b.x", ""), "hello");
}

TEST(Config, CommentsAndBlankLines)
{
    Config c = *Config::tryFromString(
        "# full-line comment\n"
        "\n"
        "key = value # trailing comment\n");
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(*c.tryGetString("key", ""), "value");
}

TEST(Config, TypedAccessors)
{
    Config c = *Config::tryFromString(
        "f = 2.5\ni = -3\nb = true\ns = text\n");
    EXPECT_DOUBLE_EQ(*c.tryGetDouble("f"), 2.5);
    EXPECT_EQ(*c.tryGetInt("i"), -3);
    EXPECT_TRUE(*c.tryGetBool("b"));
    EXPECT_EQ(*c.tryGetString("s", ""), "text");
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_DOUBLE_EQ(*c.tryGetDouble("nope", 7.0), 7.0);
    EXPECT_EQ(*c.tryGetInt("nope", 9), 9);
    EXPECT_TRUE(*c.tryGetBool("nope", true));
    EXPECT_EQ(*c.tryGetString("nope", "d"), "d");
}

TEST(Config, SettersOverwrite)
{
    Config c;
    c.set("k", 1.5);
    c.set("k", 2.5);
    EXPECT_DOUBLE_EQ(*c.tryGetDouble("k"), 2.5);
    c.set("flag", true);
    EXPECT_TRUE(*c.tryGetBool("flag"));
    c.set("n", 42);
    EXPECT_EQ(*c.tryGetInt("n"), 42);
}

TEST(Config, SetStoresAStringLiteralAsText)
{
    // A const char * converts to bool by a standard conversion, which
    // would beat the conversion to std::string.
    Config c;
    c.set("k", "abc");
    EXPECT_EQ(*c.tryGetString("k", ""), "abc");
    EXPECT_EQ(c.toString(), "k = abc\n");
}

TEST(Config, SetDoubleKeepsFifteenDigitTextWhenItReadsBack)
{
    Config c;
    c.set("a", 0.925);
    c.set("b", 123e9);
    c.set("c", 1e6);
    c.set("d", 2.5e-7);
    c.set("e", 1.0 / 3.0 + 0.6);   // 0.93333333333333335
    EXPECT_EQ(c.toString(), "a = 0.925\n"
                            "b = 123000000000\n"
                            "c = 1000000\n"
                            "d = 2.5e-07\n"
                            "e = 0.9333333333333333\n");
}

TEST(Config, SetDoubleRoundTripsEveryFiniteDoubleBitExactly)
{
    Rng rng(29);
    int checked = 0;
    while (checked < 100000) {
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        if (!std::isfinite(d))
            continue;
        Config c;
        c.set("k", d);
        const std::string text = c.toString();
        Expected<Config> back = Config::tryFromString(text);
        ASSERT_TRUE(back.ok()) << back.status().toString();
        Expected<double> got = back->tryGetDouble("k");
        ASSERT_TRUE(got.ok()) << got.status().toString();
        std::uint64_t gotBits;
        std::memcpy(&gotBits, &*got, sizeof gotBits);
        ASSERT_EQ(gotBits, bits) << "through \"" << text << "\"";
        ++checked;
    }
}

TEST(Config, HasAndPrefixSearch)
{
    Config c = *Config::tryFromString(
        "ehp.cus = 320\nehp.freq = 1.0\nextmem.dram = 768\n");
    EXPECT_TRUE(c.has("ehp.cus"));
    EXPECT_FALSE(c.has("ehp.bw"));
    auto keys = c.keysWithPrefix("ehp.");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "ehp.cus");
    EXPECT_EQ(keys[1], "ehp.freq");
}

TEST(Config, RoundTripThroughToString)
{
    Config a = *Config::tryFromString("x = 1\ny = hello world\n");
    Config b = *Config::tryFromString(a.toString());
    EXPECT_EQ(*b.tryGetInt("x"), 1);
    EXPECT_EQ(*b.tryGetString("y", ""), "hello world");
}

TEST(Config, DuplicateKeyWarnsOnceAndKeepsTheLastValue)
{
    std::vector<std::string> warnings;
    setLogSink([&](LogLevel, const std::string &line) {
        warnings.push_back(line);
    });
    Config c = *Config::tryFromString(
        "k = 1\n"
        "k = 2\n"
        "k = 3\n"
        "other = x\n");
    setLogSink({});
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(*c.tryGetInt("k"), 3);   // last write wins, as before
    int dup_warnings = 0;
    for (const std::string &w : warnings)
        if (w.find("duplicate key 'k'") != std::string::npos)
            ++dup_warnings;
    EXPECT_EQ(dup_warnings, 1);   // once per key, not once per repeat
}

TEST(Config, TryGetReportsMissingKeyAsNotFound)
{
    Config c;
    auto d = c.tryGetDouble("nope");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), ErrorCode::NotFound);
    EXPECT_NE(d.status().message().find("'nope'"), std::string::npos);
    auto i = c.tryGetInt("nope");
    EXPECT_EQ(i.status().code(), ErrorCode::NotFound);
    auto b = c.tryGetBool("nope");
    EXPECT_EQ(b.status().code(), ErrorCode::NotFound);
}

TEST(Config, TryGetDiagnosticsCarryTheKeyOrigin)
{
    Config c = unwrapOrFatal(
        Config::tryFromString("a = 1\nbad = abc\n", "cfg.ini"));
    EXPECT_EQ(c.origin("bad"), "cfg.ini:2");
    EXPECT_EQ(c.origin("a"), "cfg.ini:1");
    auto d = c.tryGetDouble("bad");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), ErrorCode::ParseError);
    // The diagnostic points back at the offending file:line.
    EXPECT_NE(d.status().message().find("(cfg.ini:2)"),
              std::string::npos);
    EXPECT_NE(d.status().message().find("'abc'"), std::string::npos);
}

TEST(Config, TryGetRejectsTrailingGarbageNumerics)
{
    Config c = *Config::tryFromString("f = 3.0x\ni = 12abc\n");
    auto d = c.tryGetDouble("f");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), ErrorCode::ParseError);
    auto i = c.tryGetInt("i");
    ASSERT_FALSE(i.ok());
    EXPECT_EQ(i.status().code(), ErrorCode::ParseError);
}

TEST(Config, TryGetRejectsNonFiniteDoubles)
{
    Config c = *Config::tryFromString(
        "a = nan\nb = inf\nc = -inf\nd = 1e999\n");
    for (const char *key : {"a", "b", "c", "d"}) {
        auto d = c.tryGetDouble(key);
        ASSERT_FALSE(d.ok()) << key;
        EXPECT_EQ(d.status().code(), ErrorCode::OutOfRange) << key;
        EXPECT_NE(d.status().message().find("not a finite number"),
                  std::string::npos)
            << key;
    }
}

TEST(Config, TryGetDefaultedStillRejectsPresentButBadValues)
{
    Config c = *Config::tryFromString("bad = abc\n");
    // Absent key -> the default, no error.
    EXPECT_DOUBLE_EQ(*c.tryGetDouble("missing", 7.0), 7.0);
    EXPECT_EQ(*c.tryGetInt("missing", 9), 9);
    // Present-but-malformed value -> still an error, never the default.
    EXPECT_FALSE(c.tryGetDouble("bad", 7.0).ok());
    EXPECT_FALSE(c.tryGetInt("bad", 9).ok());
    EXPECT_FALSE(c.tryGetBool("bad", true).ok());
}

TEST(Config, TryFromStringReportsParseErrors)
{
    auto missing_eq = Config::tryFromString("just a line\n", "f.ini");
    ASSERT_FALSE(missing_eq.ok());
    EXPECT_EQ(missing_eq.status().code(), ErrorCode::ParseError);
    EXPECT_NE(missing_eq.status().message().find("f.ini:1"),
              std::string::npos);

    auto empty_key = Config::tryFromString("ok = 1\n = v\n", "f.ini");
    ASSERT_FALSE(empty_key.ok());
    EXPECT_NE(empty_key.status().message().find("f.ini:2"),
              std::string::npos);
}

TEST(Config, TryFromFileReportsIoError)
{
    auto e = Config::tryFromFile("no/such/config.ini");
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), ErrorCode::IoError);
    EXPECT_NE(e.status().message().find("no/such/config.ini"),
              std::string::npos);
}

TEST(Config, TryFromFileLoadsAndTracksOrigins)
{
    const std::string path = "test_config_origin.tmp";
    std::ofstream(path) << "x = 5\ny = 2.5\n";
    auto e = Config::tryFromFile(path);
    ASSERT_TRUE(e.ok()) << e.status().toString();
    EXPECT_EQ(*e->tryGetInt("x"), 5);
    EXPECT_EQ(e->origin("y"), path + ":2");
    std::remove(path.c_str());
}

// Config's fatal flavors are gone; CLIs unwrap these errors at their
// own boundary. The tests keep their names and pin the Status instead.

TEST(ConfigDeathTest, MissingKeyIsFatal)
{
    Config c;
    auto d = c.tryGetDouble("missing");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(d.status().message(), "missing config key 'missing'");
}

TEST(ConfigDeathTest, MalformedNumberIsFatal)
{
    Config c = *Config::tryFromString("k = abc\n", "c.ini");
    auto d = c.tryGetDouble("k");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(d.status().message(),
              "config key 'k' (c.ini:1): 'abc' is not a number");
}

TEST(ConfigDeathTest, MissingEqualsIsFatal)
{
    auto c = Config::tryFromString("just a line\n");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(c.status().message(),
              "<string>:1: missing '=' in 'just a line'");
}

// The text format, pinned: these tests hold for any parser behind
// Config::tryFromString.

TEST(ConfigText, CrlfLineEndingsReadLikeLf)
{
    Config c = *Config::tryFromString(
        "a = 1\r\nb.x = two words\r\n\r\nc=3\r\n", "crlf.ini");
    EXPECT_EQ(c.toString(), "a = 1\nb.x = two words\nc = 3\n");
    EXPECT_EQ(c.origin("c"), "crlf.ini:4");

    auto bad = Config::tryFromString("a = 1\r\njust a line\r\n", "crlf.ini");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().message(),
              "crlf.ini:2: missing '=' in 'just a line'");
}

TEST(ConfigText, HashStartsACommentEvenInsideAValue)
{
    Config c = *Config::tryFromString(
        "url = http://host/#frag\n"
        "k = a#b # trailing\n"
        "#only = a comment\n"
        "   # indented comment\n");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(*c.tryGetString("url", ""), "http://host/");
    EXPECT_EQ(*c.tryGetString("k", ""), "a");
    EXPECT_FALSE(c.has("#only"));
}

TEST(ConfigText, EqualsInsideAValueStaysInTheValue)
{
    Config c = *Config::tryFromString("expr = a=b=c\nk==v\n");
    EXPECT_EQ(*c.tryGetString("expr", ""), "a=b=c");
    EXPECT_EQ(*c.tryGetString("k", ""), "=v");
}

TEST(ConfigText, BlankAndWhitespaceOnlyLinesAreSkippedButCounted)
{
    Config c = *Config::tryFromString(
        "\n   \n\t \n  spaced key  =  v w  \n \t\nlast = 2");
    EXPECT_EQ(c.toString(), "last = 2\nspaced key = v w\n");
    EXPECT_EQ(c.origin("spaced key"), "<string>:4");
    EXPECT_EQ(c.origin("last"), "<string>:6");
    EXPECT_EQ(Config::tryFromString("").value().size(), 0u);
    EXPECT_EQ(Config::tryFromString("\n \n").value().size(), 0u);
}

TEST(ConfigText, ParseErrorMessagesNameSourceAndLine)
{
    auto missing_eq = Config::tryFromString(
        "ok = 1\n\njust a line # note\n", "f.ini");
    ASSERT_FALSE(missing_eq.ok());
    EXPECT_EQ(missing_eq.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(missing_eq.status().message(),
              "f.ini:3: missing '=' in 'just a line'");

    auto empty_key = Config::tryFromString("ok = 1\n = v\n", "f.ini");
    ASSERT_FALSE(empty_key.ok());
    EXPECT_EQ(empty_key.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(empty_key.status().message(), "f.ini:2: empty key");

    auto blank_key = Config::tryFromString("  =  \n");
    ASSERT_FALSE(blank_key.ok());
    EXPECT_EQ(blank_key.status().message(), "<string>:1: empty key");

    // The first bad line is the one reported.
    auto first = Config::tryFromString("x\n=y\n", "f.ini");
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().message(), "f.ini:1: missing '=' in 'x'");
}

TEST(ConfigText, DuplicateKeyWarningNamesTheEarlierOrigin)
{
    std::vector<std::string> warnings;
    setLogSink([&](LogLevel, const std::string &line) {
        warnings.push_back(line);
    });
    Config c = *Config::tryFromString(
        "k = 1\n"
        "other = x\n"
        "k = 2\n"
        "k = 3\n"
        "other = y\n",
        "dup.ini");
    setLogSink({});
    ASSERT_EQ(warnings.size(), 2u);
    EXPECT_EQ(warnings[0], "warn: dup.ini:3: duplicate key 'k' overrides "
                           "earlier value from dup.ini:1");
    EXPECT_EQ(warnings[1], "warn: dup.ini:5: duplicate key 'other' "
                           "overrides earlier value from dup.ini:2");
    // The last value wins, and the key's origin is where it came from.
    EXPECT_EQ(*c.tryGetInt("k"), 3);
    EXPECT_EQ(*c.tryGetString("other", ""), "y");
    EXPECT_EQ(c.origin("k"), "dup.ini:4");
    EXPECT_EQ(c.origin("other"), "dup.ini:5");
}

TEST(ConfigText, OriginAndDescribeKeyForParsedAndSetKeys)
{
    Config c = *Config::tryFromString("a = 1\nb = 2\n", "o.ini");
    c.set("b", 5);
    c.set("fresh", "abc");
    EXPECT_EQ(c.origin("a"), "o.ini:1");
    EXPECT_EQ(c.describeKey("a"), "'a' (o.ini:1)");
    // set() clears a parsed key's origin; a set() key has none.
    EXPECT_EQ(c.origin("b"), "");
    EXPECT_EQ(c.describeKey("b"), "'b'");
    EXPECT_EQ(c.origin("fresh"), "");
    EXPECT_EQ(c.describeKey("fresh"), "'fresh'");
    EXPECT_EQ(c.origin("missing"), "");
    EXPECT_EQ(c.describeKey("missing"), "'missing'");
    EXPECT_EQ(c.tryGetDouble("fresh").status().message(),
              "config key 'fresh': 'abc' is not a number");
}

TEST(ConfigText, KeysWithPrefixStopsAtThePrefixBoundary)
{
    Config c = *Config::tryFromString(
        "eh = 1\nehp = 2\nehp. = 3\nehp.a = 4\nehp.b.c = 5\nehq.b = 6\n");
    auto keys = c.keysWithPrefix("ehp.");
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "ehp.");
    EXPECT_EQ(keys[1], "ehp.a");
    EXPECT_EQ(keys[2], "ehp.b.c");
    EXPECT_EQ(c.keysWithPrefix("").size(), 6u);
    EXPECT_TRUE(c.keysWithPrefix("zz").empty());
}

namespace {

struct Fan
{
    int blades = 3;
    double rpm = 1000.0;

    Status
    tryValidate() const
    {
        if (blades < 1)
            return Status::outOfRange("Fan: bad blade count ", blades);
        return Status();
    }
};

template <typename F>
void
configFields(Fan &f, F &&field)
{
    field("fan.blades", f.blades);
    field("fan.rpm", f.rpm);
}

} // anonymous namespace

TEST(ConfigText, ReadConfigFieldsReportsTheFirstUnknownKeyInKeyOrder)
{
    const ConfigFieldScope scope{"fan", "fan.", {"fan.motor."}};
    Config bad = *Config::tryFromString("fan.zeta = 1\n"
                                        "fan.alpha = 2\n"
                                        "fan.blades = 4\n",
                                        "fans.ini");
    auto f = readConfigFields<Fan>(bad, scope);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(f.status().message(),
              "unknown fan key 'fan.alpha' (fans.ini:2)");

    // Keys another struct owns, and keys outside the prefix, pass.
    Config good = *Config::tryFromString("fan.motor.kw = 2\n"
                                         "other.key = x\n"
                                         "fan.blades = 4\n");
    auto g = readConfigFields<Fan>(good, scope);
    ASSERT_TRUE(g.ok()) << g.status().toString();
    EXPECT_EQ(g->blades, 4);
    EXPECT_EQ(g->rpm, 1000.0);
}
