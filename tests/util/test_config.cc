/**
 * @file
 * Unit tests for the Config key-value store.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/config.hh"
#include "util/logging.hh"

using namespace ena;

TEST(Config, ParseBasicPairs)
{
    Config c = *Config::tryFromString("a = 1\nb.x = hello\n");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(*c.tryGetInt("a"), 1);
    EXPECT_EQ(*c.tryGetString("b.x"), "hello");
}

TEST(Config, CommentsAndBlankLines)
{
    Config c = *Config::tryFromString(
        "# full-line comment\n"
        "\n"
        "key = value # trailing comment\n");
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(*c.tryGetString("key"), "value");
}

TEST(Config, TypedAccessors)
{
    Config c = *Config::tryFromString(
        "f = 2.5\ni = -3\nb = true\ns = text\n");
    EXPECT_DOUBLE_EQ(*c.tryGetDouble("f"), 2.5);
    EXPECT_EQ(*c.tryGetInt("i"), -3);
    EXPECT_TRUE(*c.tryGetBool("b"));
    EXPECT_EQ(*c.tryGetString("s"), "text");
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

TEST(Config, MergeOtherWins)
{
    Config a = *Config::tryFromString("x = 1\ny = 2\n");
    Config b = *Config::tryFromString("y = 3\nz = 4\n");
    a.merge(b);
    EXPECT_EQ(*a.tryGetInt("x"), 1);
    EXPECT_EQ(*a.tryGetInt("y"), 3);
    EXPECT_EQ(*a.tryGetInt("z"), 4);
}

TEST(Config, RoundTripThroughToString)
{
    Config a = *Config::tryFromString("x = 1\ny = hello world\n");
    Config b = *Config::tryFromString(a.toString());
    EXPECT_EQ(*b.tryGetInt("x"), 1);
    EXPECT_EQ(*b.tryGetString("y"), "hello world");
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
    auto s = c.tryGetString("nope");
    EXPECT_EQ(s.status().code(), ErrorCode::NotFound);
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
