/// The shared JSON reader's edges: the nesting bound holds exactly at
/// kMaxDepth, and malformed scalars are rejected rather than read as a
/// best-effort value. Byte-level writer output is pinned by the FileSink,
/// StatusReport and FleetStatus tests.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace kertbn::obs::json {
namespace {

std::string nested(char open, char close, std::size_t depth) {
  std::string inner = "1";
  for (std::size_t i = 0; i < depth; ++i) {
    inner = open == '{' ? "{\"k\":" + inner + "}" : open + inner + close;
  }
  return inner;
}

TEST(Json, NestingBoundIsExact) {
  for (const char open : {'[', '{'}) {
    const char close = open == '[' ? ']' : '}';
    EXPECT_TRUE(parse(nested(open, close, kMaxDepth)).has_value()) << open;
    EXPECT_FALSE(parse(nested(open, close, kMaxDepth + 1)).has_value())
        << open;
  }
}

TEST(Json, RejectsMalformedScalars) {
  for (const char* bad :
       {"", " ", "tru", "nul", "-", "1e", "1-2", "+", "\"open",
        "\"bad \\q escape\"", "\"\\u00zz\"", "\"\\u12\"", "[1,]", "{\"a\"}",
        "{\"a\":1,}", "[1] x"}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
  }
  const std::optional<Value> ok = parse(" [\"\\u0001\\t\", -2.5e-3, null] ");
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->array.size(), 3u);
  EXPECT_EQ(ok->array[0].string, "\x01\t");
  EXPECT_EQ(ok->array[1].number, -2.5e-3);
  EXPECT_EQ(ok->array[2].kind, Value::Kind::kNull);
}

}  // namespace
}  // namespace kertbn::obs::json
