#include "dns/domain_name.h"

#include <gtest/gtest.h>

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
  EXPECT_TRUE(DomainName::is_valid("a.b.c"));
  EXPECT_FALSE(DomainName::is_valid("a..c"));
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
