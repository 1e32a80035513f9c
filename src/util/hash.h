// Hashing helpers: FNV-1a for strings, a 64-bit mixer for integers, a
// combine helper for composite keys, and the transparent string hash behind
// the string-keyed containers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace seg::util {

/// 64-bit FNV-1a over a byte string.
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Strong 64-bit integer mixer (SplitMix64 finalizer).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent hash combine.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// std::hash<std::string_view> made transparent: string-keyed containers
/// can be probed with a string_view without materializing a std::string.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename V>
using StringMap = std::unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>;
using StringSet = std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>;

}  // namespace seg::util
