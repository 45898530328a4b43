#pragma once
/// \file json.hpp
/// The one JSON codec of the telemetry and status surfaces: FileSink
/// lines, StatusReport and FleetStatus are written with Writer, and
/// StatusReport (plus the tests that read FileSink output) parse with
/// parse().
///
/// Writer emits single-line JSON with one fixed format: integers as
/// %llu, doubles as %.17g (enough digits to round-trip exactly), and
/// strings with `"`, `\`, \n, \r, \t escaped and every other control byte
/// written as \u00XX. parse() reads that subset back: objects, arrays,
/// strings with those escapes, numbers, booleans and null.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kertbn::obs::json {

/// Builds one JSON text. Commas between members and array elements are
/// placed automatically; inside an object, key() precedes each value.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// Writes an object member's key; the next call writes its value.
  Writer& key(std::string_view k);
  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(std::uint64_t v);
  Writer& value(double v);
  Writer& value(bool v);

  /// key(k) followed by value(v).
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Moves the text out; the writer is empty afterwards.
  std::string take() { return std::move(out_); }

 private:
  /// Writes the comma owed by the previous member or element.
  void separate();

  std::string out_;
  bool need_comma_ = false;
};

/// A parsed JSON value. Objects keep their members in document order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// The first member named \p key; nullptr when there is none or this is
  /// not an object.
  const Value* find(std::string_view key) const;
};

/// Deepest object/array nesting parse() accepts. The documents it reads
/// nest at most four deep; the bound keeps hostile input from exhausting
/// the stack of the recursive descent.
inline constexpr std::size_t kMaxDepth = 64;

/// Parses one JSON document (surrounding whitespace allowed). Returns
/// nullopt on malformed input, trailing bytes or nesting deeper than
/// kMaxDepth; never aborts or throws on bad input.
std::optional<Value> parse(std::string_view text);

}  // namespace kertbn::obs::json
