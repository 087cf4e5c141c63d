// tut::intern::Fnv — the one byte-serial FNV-1a 64 definition.
//
// Every pinned or persisted hash goes through it: batch log hashes, campaign
// scenario digests, spec fingerprints and the rolling aggregate digest, the
// fault RNG's component keys and the native image content hash that names
// the cached .so. Changing it moves every pinned digest. (The serve cache's
// in-memory key is a different, 4-lane algorithm and stays separate.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tut::intern {

/// Incremental FNV-1a 64 accumulator.
struct Fnv {
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kOffset;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  }
  /// `s` then a 0xff length delimiter: "ab"+"c" != "a"+"bc".
  void str(std::string_view s) noexcept {
    bytes(s.data(), s.size());
    h = (h ^ 0xffu) * kPrime;
  }
  /// `v` as 8 little-endian bytes.
  void u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  /// FNV-1a of `s` alone (no delimiter).
  static std::uint64_t of(std::string_view s) noexcept {
    Fnv f;
    f.bytes(s.data(), s.size());
    return f.h;
  }
};

}  // namespace tut::intern
