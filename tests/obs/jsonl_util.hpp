#pragma once
/// \file jsonl_util.hpp
/// Reads the FileSink's JSONL output back in tests, through the shared
/// codec (obs/json.hpp). Everything here throws, so a malformed line or a
/// missing key fails the test loudly instead of reading a default.

#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace kertbn::testutil {

using Json = obs::json::Value;

/// The member \p key of object \p v.
inline const Json& at(const Json& v, std::string_view key) {
  const Json* member = v.find(key);
  if (member == nullptr) {
    throw std::runtime_error("jsonl_util: missing key " + std::string(key));
  }
  return *member;
}

inline std::uint64_t as_u64(const Json& v) {
  return static_cast<std::uint64_t>(v.number);
}

/// Parses every non-empty line of a JSONL file.
inline std::vector<Json> parse_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("jsonl_util: cannot open " + path);
  std::vector<Json> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<Json> v = obs::json::parse(line);
    if (!v.has_value()) {
      throw std::runtime_error("jsonl_util: malformed line: " + line);
    }
    out.push_back(std::move(*v));
  }
  return out;
}

}  // namespace kertbn::testutil
