// FNV-1a (64-bit): the project's one content hash. Schedule, workload and
// metrics fingerprints, sweep-journal cell keys, JWB1 checksums and
// journal record checksums all fold their input through these two
// functions, so a fingerprint computed by one layer can be compared with
// one computed by another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jsched::util {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over `n` bytes (JWB1 block checksums).
constexpr std::uint64_t fnv1a(const unsigned char* data,
                              std::size_t n) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over `data` (used for per-record journal checksums).
inline std::uint64_t fnv1a(std::string_view data) noexcept {
  return fnv1a(reinterpret_cast<const unsigned char*>(data.data()),
               data.size());
}

/// Fold the eight bytes of `v` into `h`, least significant first: how
/// every fingerprint folds an integer field.
constexpr void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
}

}  // namespace jsched::util
