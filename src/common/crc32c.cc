#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace c5 {

namespace {

// Lookup table generated at compile time from the reflected Castagnoli
// polynomial 0x82F63B78.
struct Crc32cTable {
  std::array<std::uint32_t, 256> entries;

  constexpr Crc32cTable() : entries() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[i] = crc;
    }
  }
};

constexpr Crc32cTable kCrcTable;

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC, eight bytes per instruction. Compiled for SSE4.2 on its own, so the
// rest of the build keeps the baseline ISA; only called after the runtime
// check below.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= 8; len -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; --len, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

namespace internal {

std::uint32_t Crc32cPortable(const void* data, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrcTable.entries[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

bool Crc32cIsHardware() {
#if defined(__x86_64__)
  return HasSse42();
#else
  return false;
#endif
}

}  // namespace internal

std::uint32_t Crc32c(const void* data, std::size_t len, std::uint32_t seed) {
#if defined(__x86_64__)
  if (HasSse42()) return Crc32cSse42(data, len, seed);
#endif
  return internal::Crc32cPortable(data, len, seed);
}

}  // namespace c5
