#pragma once
/// \file text_codec.hpp
/// The one text codec behind kertbn's durable text formats: the model text
/// (kert/serialize), checkpoint files (durable/checkpoint) and journal
/// payloads (durable/recovery).
///
/// Tokens are split on the whitespace `istream >>` skips. A number is one
/// whole token read by std::from_chars and finite: "+1", "0x10", "1.5abc",
/// "inf", "nan" and anything that over- or underflows a double ("1e400",
/// "1e-400") are refused. A count is one whole unsigned decimal token. No
/// writer of these formats emits anything outside that language, so every
/// file the iostream code wrote reads back to the same values.
///
/// Doubles are written as `%.17g`, through std::to_chars(general, 17):
/// the bytes `ostream << setprecision(17)` produced, and a round trip that
/// is exact for every finite double.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace kertbn::text {

/// The characters `istream >>` skips in the C locale: ' ' and '\t' through
/// '\r' ('\t', '\n', '\v', '\f', '\r').
constexpr bool is_space(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u == ' ' || static_cast<unsigned char>(u - '\t') <= '\r' - '\t';
}

/// True when all of \p token is one finite decimal number, stored in \p out.
bool parse_number(std::string_view token, double& out);

/// True when all of \p token is one unsigned integer in \p base that fits
/// \p out (no sign, no "0x" prefix), stored in \p out.
template <std::unsigned_integral T>
bool parse_count(std::string_view token, T& out, int base = 10) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

/// Reads a text front to back. Views into the text it was given, which
/// must outlive it and everything it returns.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// The next whitespace-delimited token; empty when only whitespace is
  /// left.
  std::string_view token();
  /// The next token, read as a number or a count (see the file comment).
  bool number(double& out) { return parse_number(token(), out); }
  template <std::unsigned_integral T>
  bool count(T& out) {
    return parse_count(token(), out);
  }
  /// The rest of the current line without its '\n', which is consumed
  /// (what std::getline returns after a token).
  std::string_view rest_of_line();
  /// The next \p n bytes verbatim; nullopt, consuming nothing, when fewer
  /// are left.
  std::optional<std::string_view> bytes(std::size_t n);
  /// True when only whitespace is left.
  bool at_end() const;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Builds a text in a std::string, formatting like an ostream set to
/// setprecision(17).
class Writer {
 public:
  Writer& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  Writer& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  /// `%.17g`.
  Writer& operator<<(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  Writer& operator<<(T v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
  }
  /// \p v in lowercase hex, zero-padded to at least \p width digits.
  Writer& hex(std::uint64_t v, std::size_t width);

  void reserve(std::size_t n) { out_.reserve(n); }
  std::string& str() { return out_; }

 private:
  std::string out_;
};

/// Every byte of \p path, read with one read of the size the file has when
/// opened; nullopt when it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

}  // namespace kertbn::text
