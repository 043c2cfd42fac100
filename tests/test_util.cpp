#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/json_string.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nck {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Stats, SummaryBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_EQ(s.n, 5u);
}

TEST(Stats, SummaryEmptyAndSingle) {
  EXPECT_EQ(summarize({}).n, 0u);
  std::vector<double> one{7.5};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PolyfitRecoversQuadratic) {
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i);
    y.push_back(2.0 + 3.0 * i - 0.5 * i * i);
  }
  const auto c = polyfit(x, y, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 2.0, 1e-6);
  EXPECT_NEAR(c[1], 3.0, 1e-6);
  EXPECT_NEAR(c[2], -0.5, 1e-6);
  EXPECT_NEAR(r_squared(x, y, c), 1.0, 1e-9);
}

TEST(Stats, PolyfitRejectsBadInput) {
  std::vector<double> x{1, 2}, y{1};
  EXPECT_THROW(polyfit(x, y, 1), std::invalid_argument);
  std::vector<double> x2{1}, y2{1};
  EXPECT_THROW(polyfit(x2, y2, 2), std::invalid_argument);
}

TEST(Stats, PolyvalHorner) {
  std::vector<double> c{1.0, -2.0, 1.0};  // (x-1)^2
  EXPECT_DOUBLE_EQ(polyval(c, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(polyval(c, 1.0), 0.0);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(42);
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
  EXPECT_NE(csv.str().find("alpha,42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

// Reads `literal` (a JSON string token, quotes included); returns the
// failure reason, or "" with the decoded bytes in `out`.
std::string read_string(const std::string& literal, std::string& out) {
  std::size_t pos = 1;  // past the opening quote
  const char* why = parse_json_string(literal, pos, out);
  if (why != nullptr) return why;
  EXPECT_EQ(pos, literal.size()) << literal;
  return "";
}

TEST(JsonString, EscapeShortFormsAndLowercaseUnicodeForControlBytes) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t\r"), "a\\\"b\\\\c\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\b", 3)), "\\u0001\\u001f\\u0008");
  EXPECT_EQ(json_escape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(json_escape("caf\xC3\xA9 /"), "caf\xC3\xA9 /");  // UTF-8 verbatim
}

TEST(JsonString, EveryByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string back;
  ASSERT_EQ(read_string("\"" + json_escape(all) + "\"", back), "");
  EXPECT_EQ(back, all);
}

TEST(JsonString, DecodesEveryEscapeAndUnicodeToUtf8) {
  std::string out;
  ASSERT_EQ(read_string(R"("\"\\\/\b\f\n\r\t")", out), "");
  EXPECT_EQ(out, "\"\\/\b\f\n\r\t");
  ASSERT_EQ(read_string(R"("\u0041\u00e9\u20AC")", out), "");
  EXPECT_EQ(out, "A\xC3\xA9\xE2\x82\xAC");
  // A surrogate pair is one code point, U+1F600, four UTF-8 bytes.
  ASSERT_EQ(read_string(R"("\uD83D\uDE00")", out), "");
  EXPECT_EQ(out, "\xF0\x9F\x98\x80");
  ASSERT_EQ(read_string(R"("\u0001")", out), "");
  EXPECT_EQ(out, "\x01");
}

TEST(JsonString, RejectsLoneSurrogatesRawControlBytesAndBadEscapes) {
  std::string out;
  const std::string bad_strings[] = {
      R"("\uDE00")", R"("\uD83D")", R"("\uD83Dx")", R"("\uD83D\u0041")",
      R"("\u12")",   R"("\u12G4")", R"("\q")",      "\"a\x01\"",
      "\"a\tb\"",    "\"a\nb\"",    "\"abc",       "\"a\\"};
  for (const std::string& bad : bad_strings) {
    EXPECT_NE(read_string(bad, out), "") << "accepted " << bad;
  }
}

}  // namespace
}  // namespace nck
