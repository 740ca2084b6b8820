// Request-target parsing and path-taxonomy tests.
#include <gtest/gtest.h>

#include <ostream>

#include "httplog/url.hpp"

namespace {

using divscrape::httplog::is_static_asset;
using divscrape::httplog::parse_query;
using divscrape::httplog::parse_url;
using divscrape::httplog::path_extension;
using divscrape::httplog::path_segments;
using divscrape::httplog::path_template;
using divscrape::httplog::query_value;
using divscrape::httplog::url_decode;

TEST(Url, SplitsPathAndQuery) {
  const auto url = parse_url("/search?from=NCE&to=LHR");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path, "/search");
  EXPECT_EQ(url->query, "from=NCE&to=LHR");
  EXPECT_TRUE(url->has_query());
}

TEST(Url, NoQuery) {
  const auto url = parse_url("/offers/123");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path, "/offers/123");
  EXPECT_FALSE(url->has_query());
}

TEST(Url, StripsFragment) {
  const auto url = parse_url("/a?b=c#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->query, "b=c");
}

TEST(Url, RejectsNonOriginForm) {
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("http://evil.example/").has_value());
  EXPECT_FALSE(parse_url("*").has_value());
}

TEST(UrlDecode, BasicEscapes) {
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("%41%42%43"), "ABC");
  EXPECT_EQ(url_decode("100%25"), "100%");
}

TEST(UrlDecode, InvalidEscapesPassThrough) {
  EXPECT_EQ(url_decode("%zz"), "%zz");
  EXPECT_EQ(url_decode("%2"), "%2");
  EXPECT_EQ(url_decode("%"), "%");
}

TEST(Query, ParsesPairs) {
  const auto params = parse_query("from=NCE&to=LHR&flag&empty=");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].key, "from");
  EXPECT_EQ(params[0].value, "NCE");
  EXPECT_EQ(params[2].key, "flag");
  EXPECT_EQ(params[2].value, "");
  EXPECT_EQ(params[3].key, "empty");
}

TEST(Query, ValueLookup) {
  EXPECT_EQ(query_value("a=1&b=2", "b").value_or("?"), "2");
  EXPECT_FALSE(query_value("a=1", "c").has_value());
  EXPECT_EQ(query_value("q=a%20b", "q").value_or("?"), "a b");
}

TEST(PathSegments, SkipsEmpties) {
  EXPECT_EQ(path_segments("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(path_segments("/a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(path_segments("/").empty());
}

TEST(PathExtension, Lowercased) {
  EXPECT_EQ(path_extension("/static/app.JS"), "js");
  EXPECT_EQ(path_extension("/static/app.min.js"), "js");
  EXPECT_EQ(path_extension("/offers/123"), "");
  EXPECT_EQ(path_extension("/.hidden"), "");
  EXPECT_EQ(path_extension("/x."), "");
}

// Cases print as `name`, the stable ctest name; see ErrorCase in
// httplog_clf_test.
struct AssetCase {
  const char* name;
  const char* path;
  bool asset;
};

void PrintTo(const AssetCase& c, std::ostream* os) { *os << c.name; }

class AssetTest : public ::testing::TestWithParam<AssetCase> {};

TEST_P(AssetTest, Classification) {
  EXPECT_EQ(is_static_asset(GetParam().path), GetParam().asset)
      << GetParam().path;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AssetTest,
    ::testing::Values(AssetCase{"StaticJs", "/static/app-1.js", true},
                      AssetCase{"StaticCss", "/static/theme.css", true},
                      AssetCase{"PngImage", "/img/logo.png", true},
                      AssetCase{"Woff2Font", "/fonts/x.woff2", true},
                      AssetCase{"OfferPage", "/offers/123", false},
                      AssetCase{"SearchPage", "/search", false},
                      AssetCase{"RobotsTxt", "/robots.txt", false},
                      AssetCase{"JsonData", "/data.json", false}));

TEST(PathTemplate, CollapsesNumericSegments) {
  EXPECT_EQ(path_template("/offers/123"), "/offers/{n}");
  EXPECT_EQ(path_template("/offers/987654"), "/offers/{n}");
  EXPECT_EQ(path_template("/book/1/step/2"), "/book/{n}/step/{n}");
  EXPECT_EQ(path_template("/search"), "/search");
  EXPECT_EQ(path_template("/"), "/");
}

TEST(PathTemplate, SweepCollapsesToOneTemplate) {
  // The scraper-detection property: a catalogue sweep has one template.
  const auto t1 = path_template("/offers/1");
  for (int id = 2; id < 100; ++id) {
    EXPECT_EQ(path_template("/offers/" + std::to_string(id)), t1);
  }
}

TEST(PathTemplateMemo, SweepSharesOneTemplateToken) {
  divscrape::httplog::PathTemplateMemo memo;
  const auto tok = memo.template_token("/offers/1");
  for (int id = 2; id < 100; ++id) {
    EXPECT_EQ(memo.template_token("/offers/" + std::to_string(id)), tok);
  }
  EXPECT_EQ(memo.distinct_paths(), 99u);
  EXPECT_NE(memo.template_token("/search"), tok);
}

TEST(PathTemplateMemo, RepeatPathsAreMemoized) {
  divscrape::httplog::PathTemplateMemo memo;
  const auto a = memo.template_token("/book/7/step/2");
  EXPECT_EQ(memo.template_token("/book/7/step/2"), a);
  EXPECT_EQ(memo.distinct_paths(), 1u);
}

TEST(PathTemplateMemo, CapBoundsGrowthButKeepsKnownTemplatesExact) {
  using divscrape::httplog::PathTemplateMemo;
  // Cap of 4 strings: "/offers/1", "/offers/{n}", "/a", "/b" fill it.
  PathTemplateMemo memo(4);
  const auto offers = memo.template_token("/offers/1");
  (void)memo.template_token("/a");
  (void)memo.template_token("/b");
  EXPECT_EQ(memo.distinct_paths(), 3u);

  // Past the cap: a fresh sweep path still resolves to the exact, already
  // interned template token (no growth, no hash degradation).
  EXPECT_EQ(memo.template_token("/offers/99999"), offers);
  EXPECT_EQ(memo.distinct_paths(), 3u);  // not memoized past the cap

  // A template never seen before the cap degrades to a stable hash token
  // flagged with the overflow bit (never aliasing an exact token).
  const auto overflow = memo.template_token("/unseen/path");
  EXPECT_TRUE(overflow & PathTemplateMemo::kOverflowTokenBit);
  EXPECT_EQ(memo.template_token("/unseen/path"), overflow);
}

}  // namespace
