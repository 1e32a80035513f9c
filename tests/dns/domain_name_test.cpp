#include "dns/domain_name.h"

#include <gtest/gtest.h>

#include <string>

#include "util/require.h"

namespace seg::dns {
namespace {

TEST(DomainNameTest, ParseNormalizesCaseAndTrailingDot) {
  EXPECT_EQ(DomainName::parse("WwW.ExAmPlE.CoM").str(), "www.example.com");
  EXPECT_EQ(DomainName::parse("example.com.").str(), "example.com");
}

TEST(DomainNameTest, ParseAcceptsSingleLabel) {
  EXPECT_EQ(DomainName::parse("localhost").str(), "localhost");
}

TEST(DomainNameTest, ParseAcceptsDigitsHyphensUnderscores) {
  EXPECT_EQ(DomainName::parse("_dmarc.ab-1.example.com").str(), "_dmarc.ab-1.example.com");
}

TEST(DomainNameTest, ParseRejectsMalformed) {
  for (const char* bad :
       {"", ".", "..", ".example.com", "example..com", "exa mple.com", "-bad.com",
        "bad-.com", "ex!ample.com"}) {
    EXPECT_THROW(DomainName::parse(bad), util::ParseError) << bad;
  }
}

TEST(DomainNameTest, ParseErrorQuotesTheInputAsGiven) {
  try {
    DomainName::parse("Example..COM.");
  } catch (const util::ParseError& error) {
    EXPECT_STREQ(error.what(), "DomainName::parse: invalid domain name: 'Example..COM.'");
    return;
  }
  FAIL() << "DomainName::parse accepted an empty label";
}

TEST(DomainNameTest, ParseRejectsOverlongNameAndLabel) {
  const std::string long_label(64, 'a');
  EXPECT_THROW(DomainName::parse(long_label + ".com"), util::ParseError);
  std::string long_name;
  for (int i = 0; i < 64; ++i) {
    long_name += "abcd.";
  }
  long_name += "com";  // > 253 chars
  EXPECT_THROW(DomainName::parse(long_name), util::ParseError);
}

TEST(DomainNameTest, IsValidAgreesWithParse) {
  const std::string label63(63, 'a');
  const std::string label64(64, 'a');
  // 63 + 1 + 63 + 1 + 63 + 1 + 61 = 253 bytes, the longest valid name.
  const std::string name253 = label63 + "." + label63 + "." + label63 + "." + std::string(61, 'b');
  const std::string name254 = name253 + "c";
  const struct {
    std::string text;
    bool valid;
  } corpus[] = {
      {"a.b.c", true},
      {"a..c", false},
      {"WwW.ExAmPlE.CoM", true},
      {"Example.COM.", true},
      {"example.com..", false},
      {".", false},
      {"..", false},
      {"", false},
      {"a", true},
      {"A.", true},
      {".example.com", false},
      {"caf\xc3\xa9.fr", false},
      {"\x80" "abc.com", false},
      {"abc.com\xff", false},
      {"_dmarc.example.com", true},
      {"a_.b_", true},
      {"-a.com", false},
      {"a-.com", false},
      {"a.-b", false},
      {"a.b-", false},
      {"_-_.com", true},
      {"A-B.C_D", true},
      {"exa mple.com", false},
      {"ex!ample.com", false},
      {"example.com/", false},
      {label63 + ".com", true},
      {label64 + ".com", false},
      {"www." + label63, true},
      {"www." + label64 + ".", false},
      {name253, true},
      {name253 + ".", true},
      {name253 + "..", false},
      {name254, false},
      {name254 + ".", false},
  };
  for (const auto& [text, valid] : corpus) {
    bool parses = true;
    try {
      DomainName::parse(text);
    } catch (const util::ParseError&) {
      parses = false;
    }
    EXPECT_EQ(DomainName::is_valid(text), parses) << "'" << text << "'";
    EXPECT_EQ(DomainName::is_valid(text), valid) << "'" << text << "'";
  }
}

TEST(DomainNameTest, Labels) {
  const auto name = DomainName::parse("www.example.com");
  const auto labels = name.labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "www");
  EXPECT_EQ(labels[2], "com");
  EXPECT_EQ(name.label_count(), 3u);
}

TEST(DomainNameTest, TldAndParent) {
  const auto name = DomainName::parse("www.example.com");
  EXPECT_EQ(name.tld(), "com");
  EXPECT_EQ(name.parent(), "example.com");
  EXPECT_EQ(DomainName::parse("com").parent(), "");
  EXPECT_EQ(DomainName::parse("com").tld(), "com");
}

TEST(DomainNameTest, IsSubdomainOf) {
  const auto name = DomainName::parse("a.b.example.com");
  EXPECT_TRUE(name.is_subdomain_of("example.com"));
  EXPECT_TRUE(name.is_subdomain_of("b.example.com"));
  EXPECT_TRUE(name.is_subdomain_of("a.b.example.com"));  // itself
  EXPECT_FALSE(name.is_subdomain_of("xample.com"));      // not on label boundary
  EXPECT_FALSE(name.is_subdomain_of("other.com"));
  EXPECT_FALSE(DomainName::parse("example.com").is_subdomain_of("www.example.com"));
}

}  // namespace
}  // namespace seg::dns
