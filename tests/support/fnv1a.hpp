#pragma once
/// \file fnv1a.hpp
/// FNV-1a over bytes, for suites that pin the exact bytes of a durable
/// format (model text, checkpoint files, journal segments) or every bit of
/// a computed answer.

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace kertbn::test_support {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over \p bytes, continuing from \p h.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over the bytes of \p x (a double's bits, an integer's bytes),
/// continuing from \p h.
template <typename T>
  requires std::is_trivially_copyable_v<T>
inline std::uint64_t fnv1a_of(const T& x, std::uint64_t h = kFnvOffset) {
  return fnv1a(
      std::string_view(reinterpret_cast<const char*>(&x), sizeof(T)), h);
}

}  // namespace kertbn::test_support
