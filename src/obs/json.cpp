#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace kertbn::obs::json {

namespace {

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Recursive descent over the subset Writer emits. Failure sets ok_ =
/// false and unwinds; nesting is bounded by kMaxDepth.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> parse() {
    Value v = parse_value(0);
    skip_ws();
    if (!ok_ || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      ok_ = false;
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) ok_ = false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// \p depth counts the containers already open around this value.
  Value parse_value(std::size_t depth) {
    skip_ws();
    if (!ok_) return {};
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        ok_ = false;
        return {};
      }
      return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
    }
    Value v;
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
    } else if (consume_word("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (consume_word("false")) {
      v.kind = Value::Kind::kBool;
    } else if (!consume_word("null")) {
      v = parse_number();
    }
    return v;
  }

  Value parse_object(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    while (ok_) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    return v;
  }

  Value parse_array(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    while (ok_) {
      v.array.push_back(parse_value(depth));
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      break;
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (ok_) {
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        ok_ = false;
        break;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Writer only emits \u00XX control escapes.
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          if (text_.size() - pos_ < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            ok_ = false;
            break;
          }
          pos_ += 4;
          out += static_cast<char>(code);
          break;
        }
        default: ok_ = false;
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) ok_ = false;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

void Writer::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separate();
  append_quoted(out_, k);
  out_ += ':';
  return *this;
}

Writer& Writer::value(std::string_view v) {
  separate();
  append_quoted(out_, v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Value> parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace kertbn::obs::json
