#include "store/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace leopard::store {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct Tables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 extend it so
  // eight bytes fold in one step (slice-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables tbl;
  return tbl;
}

#if defined(__x86_64__)

// The SSE4.2 `crc32` instruction computes exactly this CRC (Castagnoli,
// reflected, no final xor), so the pre/post inversion matches the portable
// kernel bit for bit. Unaligned 8-byte loads are cheap on every CPU that has
// the instruction; memcpy keeps them well-defined.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#endif

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

Kernel select_kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2") != 0) return &crc32c_sse42;
#endif
  return &detail::crc32c_portable;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const Kernel kernel = select_kernel();
  return kernel(data, seed);
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const auto& t = tables().t;
  std::uint32_t crc = ~seed;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^ t[1][data[i + 6]] ^
          t[0][data[i + 7]];
  }
  for (; i < data.size(); ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

}  // namespace leopard::store
