// Minimized reproducers for bugs found while standing up the fuzzing
// subsystem (DESIGN.md §3j promote-path: every crash or contract
// violation a harness finds lands here as a ctest regression, even when
// the fix was a one-liner). Each test names the harness that found the
// input and the pre-fix failure mode.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/parse.hpp"
#include "serve/protocol.hpp"

namespace nck {
namespace {

// fuzz_parse: selection literals past ULONG_MAX made std::stoul throw
// std::out_of_range, escaping the documented "ParseError or
// std::invalid_argument" contract (an uncaught-exception abort in any
// caller that honored the header, including the serve daemon's workers).
TEST(FuzzRegressions, HugeSelectionLiteralThrowsTypedParseError) {
  const std::string program = "nck({a},{99999999999999999999999})";
  try {
    parse_program(program);
    FAIL() << "expected ParseLimitError";
  } catch (const ParseLimitError& e) {
    EXPECT_EQ(e.limit(), ParseLimit::kNumberValue);
  } catch (const std::exception& e) {
    FAIL() << "wrong exception type escaped: " << e.what();
  }
}

// fuzz_parse: selection literals in (UINT_MAX, ULONG_MAX] were silently
// truncated by static_cast<unsigned> — nck({a},{4294967296}) parsed as
// nck({a},{0}) and *solved*, quietly answering a different question than
// the program asked. Now a typed limit rejection.
TEST(FuzzRegressions, WideSelectionLiteralDoesNotWrapModulo32Bits) {
  for (const char* program : {
           "nck({a},{4294967296})",  // == {0} after the old truncation
           "nck({a},{4294967297})",  // == {1} after the old truncation
       }) {
    try {
      parse_program(program);
      FAIL() << program << " was accepted";
    } catch (const ParseLimitError& e) {
      EXPECT_EQ(e.limit(), ParseLimit::kNumberValue) << program;
    }
  }
}

// fuzz_serve_protocol: the "strict" wire reader delegated number scanning
// to strtod, which also accepts inf / nan / hex floats — none of them
// JSON. {"op":"stats","deadline_ms":inf} and hex sample budgets like
// {"reads":0x10} slipped through the documented known-domains gate.
TEST(FuzzRegressions, WireNumbersMustBeJsonGrammar) {
  serve::Request request;
  std::string why;
  for (const char* line : {
           R"json({"op":"stats","deadline_ms":inf})json",
           R"json({"op":"stats","deadline_ms":nan})json",
           R"json({"op":"stats","deadline_ms":-infinity})json",
           R"json({"op":"solve","program":"nck({a},{1})","reads":0x10})json",
           R"json({"op":"solve","program":"nck({a},{1})","shots":+5})json",
           R"json({"op":"stats","id":1.})json",
           R"json({"op":"stats","id":.5})json",
           R"json({"op":"stats","id":1e})json",
           R"json({"op":"stats","id":01})json",
           R"json({"op":"stats","deadline_ms":-007})json",
       }) {
    EXPECT_FALSE(serve::parse_request(line, request, why)) << line;
    EXPECT_FALSE(why.empty()) << line;
  }
  // The JSON number grammar itself stays fully accepted.
  for (const char* line : {
           R"json({"op":"stats","id":0})json",
           R"json({"op":"stats","deadline_ms":-2.5e-1})json",
           R"json({"op":"stats","deadline_ms":250})json",
           R"json({"op":"solve","program":"nck({a},{1})","reads":100})json",
       }) {
    EXPECT_TRUE(serve::parse_request(line, request, why)) << line << why;
  }
}

// fuzz_serve_protocol: grammar-valid overflow (1e999 -> +inf) is still
// admitted for deadline_ms — infinity is the documented "defer to the
// server default" value — but NaN never is.
TEST(FuzzRegressions, OverflowingJsonDeadlineStaysAccepted) {
  serve::Request request;
  std::string why;
  EXPECT_TRUE(serve::parse_request(R"json({"op":"stats","deadline_ms":1e999})json",
                                   request, why))
      << why;
  EXPECT_TRUE(std::isinf(request.deadline_ms));
}

}  // namespace
}  // namespace nck
