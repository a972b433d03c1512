/**
 * @file
 * Unit tests for util/string_utils.
 */

#include <climits>

#include <gtest/gtest.h>

#include "util/string_utils.hh"

using namespace ena;

TEST(StringUtils, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("\t a b \n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, ToLower)
{
    EXPECT_EQ(toLower("CoMD-LJ"), "comd-lj");
    EXPECT_EQ(toLower("ABC123"), "abc123");
}

TEST(StringUtils, ParseDoubleValid)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.5").value(), 3.5);
    EXPECT_DOUBLE_EQ(parseDouble(" -2e3 ").value(), -2000.0);
    EXPECT_DOUBLE_EQ(parseDouble("0").value(), 0.0);
}

TEST(StringUtils, ParseDoubleInvalid)
{
    EXPECT_FALSE(parseDouble("abc").has_value());
    EXPECT_FALSE(parseDouble("3.5x").has_value());
    EXPECT_FALSE(parseDouble("").has_value());
}

TEST(StringUtils, ParseIntValid)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
}

TEST(StringUtils, ParseIntInvalid)
{
    EXPECT_FALSE(parseInt("4.2").has_value());
    EXPECT_FALSE(parseInt("x").has_value());
    EXPECT_FALSE(parseInt("").has_value());
}

TEST(StringUtils, ParseIntRejectsValuesPastLongLong)
{
    EXPECT_FALSE(parseInt("99999999999999999999").has_value());
    EXPECT_FALSE(parseInt("-99999999999999999999").has_value());
    // The extremes themselves still parse, after a failed parse too.
    EXPECT_EQ(parseInt("9223372036854775807").value(), LLONG_MAX);
    EXPECT_EQ(parseInt("-9223372036854775808").value(), LLONG_MIN);
}

TEST(StringUtils, ParseBool)
{
    EXPECT_TRUE(parseBool("true").value());
    EXPECT_TRUE(parseBool("YES").value());
    EXPECT_TRUE(parseBool("1").value());
    EXPECT_FALSE(parseBool("false").value());
    EXPECT_FALSE(parseBool("off").value());
    EXPECT_FALSE(parseBool("maybe").has_value());
}

TEST(StringUtils, StartsWith)
{
    EXPECT_TRUE(startsWith("ehp.cus", "ehp."));
    EXPECT_FALSE(startsWith("ehp", "ehp."));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(StringUtils, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 3, "x"), "3-x");
    EXPECT_EQ(strformat("%.2f", 1.005), "1.00");
    // Long output exceeding any small internal buffer.
    std::string big = strformat("%0200d", 7);
    EXPECT_EQ(big.size(), 200u);
}
