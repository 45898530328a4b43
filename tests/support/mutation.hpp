#pragma once
/// \file mutation.hpp
/// Seeded byte mutations for the suites that feed damaged text to a
/// reader: truncation is the caller's, and mutate() flips a byte, inserts a
/// byte or deletes a token, drawn from splitmix64 — the generator
/// FaultInjector keys its decisions with.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/text_codec.hpp"

namespace kertbn::test_support {

/// splitmix64 (Steele, Lea & Flood), stepped as a stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Bytes the durable text formats give meaning to; insertions draw from
/// the salient bytes half the time so that damage often still looks like a
/// token.
inline constexpr std::string_view kSalient = "0123456789 \n\t.-+eE";

/// One seeded mutation: flip a byte, insert a byte, or delete a token.
inline std::string mutate(std::string text, SplitMix64& rng,
                          std::string_view salient = kSalient) {
  if (text.empty()) return text;
  const std::size_t at = rng.below(text.size());
  switch (rng.below(3)) {
    case 0:  // Flip: XOR a non-zero mask into one byte.
      text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
      break;
    case 1: {  // Insert one byte.
      const char c = rng.below(2) == 0
                         ? salient[rng.below(salient.size())]
                         : static_cast<char>(rng.below(256));
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
      break;
    }
    default: {  // Delete the token at (or after) the position.
      std::size_t begin = at;
      while (begin < text.size() && text::is_space(text[begin])) ++begin;
      while (begin > 0 && !text::is_space(text[begin - 1])) --begin;
      std::size_t end = begin;
      while (end < text.size() && !text::is_space(text[end])) ++end;
      text.erase(begin, end - begin);
      break;
    }
  }
  return text;
}

}  // namespace kertbn::test_support
