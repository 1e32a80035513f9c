#include "util/strings.h"

#include <gtest/gtest.h>

#include "util/require.h"

namespace seg::util {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  const auto parts = split("a..b", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  const auto parts = split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitTest, LeadingAndTrailingDelimiters) {
  const auto parts = split(".a.", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(SplitTest, SkipEmptyDropsEmptyFields) {
  const auto parts = split_skip_empty(".a..b.", '.');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::string input = "x\ty\tz";
  EXPECT_EQ(join(split(input, '\t'), "\t"), input);
}

TEST(JoinTest, StringOverload) {
  const std::vector<std::string> parts = {"a", "b"};
  EXPECT_EQ(join(parts, ", "), "a, b");
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ToLowerTest, LowersAsciiOnly) {
  EXPECT_EQ(to_lower("WwW.ExAmPlE.CoM"), "www.example.com");
  EXPECT_EQ(to_lower("abc-123"), "abc-123");
}

TEST(PrefixSuffixTest, StartsWith) {
  EXPECT_TRUE(starts_with("www.example.com", "www."));
  EXPECT_FALSE(starts_with("example.com", "www."));
  EXPECT_TRUE(starts_with("a", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(PrefixSuffixTest, EndsWith) {
  EXPECT_TRUE(ends_with("www.example.com", ".com"));
  EXPECT_FALSE(ends_with("www.example.org", ".com"));
  EXPECT_TRUE(ends_with("a", ""));
}

TEST(ParseU64Test, ParsesValidNumbers) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64(" 1234 "), 1234u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
}

TEST(ParseU64Test, RejectsMalformedInput) {
  EXPECT_THROW(parse_u64(""), ParseError);
  EXPECT_THROW(parse_u64("abc"), ParseError);
  EXPECT_THROW(parse_u64("12x"), ParseError);
  EXPECT_THROW(parse_u64("-1"), ParseError);
  EXPECT_THROW(parse_u64("18446744073709551616"), ParseError);  // overflow
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("-3.25"), -3.25);
  EXPECT_DOUBLE_EQ(parse_double(" 1e3 "), 1000.0);
}

TEST(ParseDoubleTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("1.2.3"), ParseError);
  EXPECT_THROW(parse_double("x"), ParseError);
}

// The messages are built only on failure (throw_parse_error); they quote
// the trimmed text.
TEST(ParseNumberTest, ErrorTextQuotesTheTrimmedInput) {
  const auto error_of = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const ParseError& error) {
      return error.what();
    }
    return "no ParseError";
  };
  EXPECT_EQ(error_of([] { parse_u64(" 12x "); }),
            "parse_u64: malformed unsigned integer: '12x'");
  EXPECT_EQ(error_of([] { parse_double("\t1.2.3"); }),
            "parse_double: malformed floating-point value: '1.2.3'");
}

TEST(ThrowParseErrorTest, ConcatenatesTextAndDecimalIntegers) {
  try {
    throw_parse_error({"n=", std::size_t{18446744073709551615ULL}, std::string_view(" u8="),
                       std::uint8_t{200}, " u32=", std::uint32_t{0}});
  } catch (const ParseError& error) {
    EXPECT_STREQ(error.what(), "n=18446744073709551615 u8=200 u32=0");
    return;
  }
  FAIL() << "throw_parse_error returned";
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(12345), "12.3K");
  EXPECT_EQ(format_count(1'600'000), "1.60M");
  EXPECT_EQ(format_count(319'900'000), "320M");
  EXPECT_EQ(format_count(2'500'000'000ULL), "2.50B");
}

}  // namespace
}  // namespace seg::util
