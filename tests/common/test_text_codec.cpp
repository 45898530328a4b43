#include "common/text_codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace kertbn::text {
namespace {

std::string written(double v) {
  Writer out;
  out << v;
  return out.str();
}

std::string streamed(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// Seeded random bit patterns (every exponent, NaN and infinity included)
/// plus the edge values of the double range.
std::vector<double> probe_doubles(std::size_t random) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1.0 / 3.0,
                                1e-5,
                                123456789012345680.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  Rng rng(20261018);
  for (std::size_t i = 0; i < random; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    // Subnormals: clear the exponent of a random pattern.
    if (i % 16 == 0) {
      values.push_back(
          std::bit_cast<double>(rng() & 0x800fffffffffffffULL));
    }
  }
  return values;
}

// The writer must reproduce `ostream << setprecision(17)` byte for byte:
// files written before the codec existed and after it are the same files.
TEST(TextCodec, DoublesWriteAsOstreamAtSeventeenDigits) {
  for (double v : probe_doubles(200000)) {
    ASSERT_EQ(written(v), streamed(v)) << std::hexfloat << v;
  }
}

// Every finite double written reads back to the same bits, and to what
// `istream >>` read from the same text.
TEST(TextCodec, FiniteDoublesRoundTripBitExactly) {
  for (double v : probe_doubles(200000)) {
    if (!std::isfinite(v)) continue;
    const std::string token = written(v);
    double back = 0.0;
    ASSERT_TRUE(parse_number(token, back)) << token;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << token;
    std::istringstream in(token);
    double streamed_back = 0.0;
    ASSERT_TRUE(in >> streamed_back) << token;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(streamed_back),
              std::bit_cast<std::uint64_t>(v))
        << token;
  }
}

// The number language: one whole token, from_chars syntax, finite. None
// of the refused tokens is ever written by a writer of these formats.
TEST(TextCodec, NumberLanguageIsPinned) {
  for (const char* token : {"inf", "-inf", "nan", "-nan", "1e400", "-1e400",
                            "0x10", "+1", "1e-400", "1.5abc", "", "-", ".",
                            "e5", "1,5", "1 "}) {
    double v = 42.0;
    EXPECT_FALSE(parse_number(token, v)) << "'" << token << "'";
    EXPECT_EQ(v, 42.0) << "a refused token must not write its output";
  }
  const std::pair<const char*, double> accepted[] = {
      {"0", 0.0},          {"-0", -0.0},        {"1e+300", 1e300},
      {"1E5", 1e5},        {".5", 0.5},         {"5.", 5.0},
      {"007", 7.0},        {"-2.5e-3", -2.5e-3},
      {"4.9406564584124654e-324", std::numeric_limits<double>::denorm_min()}};
  for (const auto& [token, want] : accepted) {
    double v = 42.0;
    EXPECT_TRUE(parse_number(token, v)) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(want))
        << token;
  }
}

TEST(TextCodec, CountsAreWholeUnsignedTokens) {
  std::size_t n = 7;
  EXPECT_TRUE(parse_count(std::string_view("0"), n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(parse_count(std::string_view("18446744073709551615"), n));
  EXPECT_EQ(n, std::numeric_limits<std::size_t>::max());
  for (const char* token :
       {"-1", "+1", "18446744073709551616", "12abc", "1.0", "", "0x10"}) {
    EXPECT_FALSE(parse_count(std::string_view(token), n)) << token;
  }
  std::uint32_t crc = 0;
  EXPECT_TRUE(parse_count(std::string_view("1234abcd"), crc, 16));
  EXPECT_EQ(crc, 0x1234abcdu);
  EXPECT_FALSE(parse_count(std::string_view("0x1234"), crc, 16));
  EXPECT_FALSE(parse_count(std::string_view("123456789"), crc, 16));
}

TEST(TextCodec, CursorSplitsOnTheWhitespaceIstreamSkips) {
  Cursor in(" a\tbb\n\vccc\f\r d  ");
  EXPECT_EQ(in.token(), "a");
  EXPECT_EQ(in.token(), "bb");
  EXPECT_EQ(in.token(), "ccc");
  EXPECT_FALSE(in.at_end());
  EXPECT_EQ(in.token(), "d");
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(in.token(), "");
  EXPECT_EQ(in.token(), "");
}

TEST(TextCodec, CursorReadsLinesAndFrames) {
  Cursor in("tree (seq a b)\nmodel 5\nab\ncdend\ntail");
  EXPECT_EQ(in.token(), "tree");
  EXPECT_EQ(in.rest_of_line(), " (seq a b)");
  std::size_t n = 0;
  EXPECT_EQ(in.token(), "model");
  EXPECT_TRUE(in.count(n));
  EXPECT_EQ(in.rest_of_line(), "");
  const auto frame = in.bytes(n);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "ab\ncd");
  EXPECT_EQ(in.token(), "end");
  EXPECT_FALSE(in.bytes(99).has_value());
  EXPECT_EQ(in.rest_of_line(), "");  // The newline after "end".
  EXPECT_EQ(in.rest_of_line(), "tail");
  EXPECT_EQ(in.rest_of_line(), "");
  EXPECT_TRUE(in.at_end());
  ASSERT_TRUE(in.bytes(0).has_value());
}

TEST(TextCodec, WriterFormatsIntegersAndPaddedHex) {
  Writer out;
  out << "x " << std::size_t{18446744073709551615u} << ' ' << -3 << ' '
      << std::uint32_t{7} << '|';
  out.hex(0x1234abcd, 16) << '|';
  out.hex(0xabc, 2) << '|';
  out.hex(0, 8);
  EXPECT_EQ(out.str(),
            "x 18446744073709551615 -3 7|000000001234abcd|abc|00000000");
}

TEST(TextCodec, ReadFileReturnsEveryByte) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "kertbn_text_codec";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string bytes = "head\n";
  bytes.push_back('\0');
  for (int i = 0; i < 100000; ++i) bytes.push_back(char(i * 7));
  const std::filesystem::path path = dir / "data.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::optional<std::string> back = read_file(path.string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  {
    std::ofstream empty(dir / "empty.bin", std::ios::binary);
  }
  const std::optional<std::string> nothing =
      read_file((dir / "empty.bin").string());
  ASSERT_TRUE(nothing.has_value());
  EXPECT_TRUE(nothing->empty());
  EXPECT_FALSE(read_file((dir / "missing.bin").string()).has_value());
  EXPECT_FALSE(read_file(dir.string()).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kertbn::text
