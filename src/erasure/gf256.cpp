#include "erasure/gf256.hpp"

#include <atomic>
#include <cstring>

#include "util/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define LEOPARD_GF256_HAS_SSSE3 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define LEOPARD_GF256_HAS_NEON 1
#endif

namespace leopard::erasure {

Gf256::Tables::Tables() {
  // Generator 2 over 0x11D generates the multiplicative group of GF(2^8).
  int x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[i] = static_cast<Gf>(x);
    log[x] = i;
    x <<= 1;
    if (x & 0x100) x ^= 0x11D;
  }
  // Double the exp table so mul can skip a mod-255 reduction.
  for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = -1;  // log(0) is undefined
}

const Gf256::Tables& Gf256::tables() {
  static const Tables t;
  return t;
}

Gf Gf256::mul(Gf a, Gf b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + t.log[b]];
}

Gf Gf256::div(Gf a, Gf b) {
  util::expects(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] - t.log[b] + 255];
}

Gf Gf256::inv(Gf a) {
  util::expects(a != 0, "GF(256) inverse of zero");
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

Gf Gf256::exp(int power) {
  const auto& t = tables();
  int p = power % 255;
  if (p < 0) p += 255;
  return t.exp[p];
}

Gf Gf256::pow(Gf a, unsigned e) {
  if (a == 0) return e == 0 ? 1 : 0;
  const auto& t = tables();
  const auto l = static_cast<unsigned>(t.log[a]);
  // Reduce the exponent first: l*e overflows 32 bits for e > ~16.8M, and the
  // group order 255 makes a^e == a^(e mod 255).
  return t.exp[(l * (e % 255)) % 255];
}

// ---------------------------------------------------------------------------
// Bulk tables
// ---------------------------------------------------------------------------

Gf256::BulkTables::BulkTables() {
  for (int c = 0; c < 256; ++c) {
    const auto coef = static_cast<Gf>(c);
    for (int i = 0; i < 16; ++i) {
      nib[static_cast<std::size_t>(c) * 32 + static_cast<std::size_t>(i)] =
          Gf256::mul(coef, static_cast<Gf>(i));
      nib[static_cast<std::size_t>(c) * 32 + 16 + static_cast<std::size_t>(i)] =
          Gf256::mul(coef, static_cast<Gf>(i << 4));
    }
    // "Multiply by c" is GF(2)-linear in x, so it is exactly an 8×8 bit
    // matrix: column j is c * 2^j. vgf2p8affineqb computes output bit i as
    // parity(qword_byte[7-i] & x), so row i lands in qword byte 7-i. This is
    // how a 0x11D field rides an instruction whose native polynomial is
    // 0x11B — the matrix encodes OUR field's multiplication.
    std::uint64_t matrix = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t row = 0;
      for (int j = 0; j < 8; ++j) {
        if ((Gf256::mul(coef, static_cast<Gf>(1u << j)) >> i) & 1u) {
          row |= static_cast<std::uint8_t>(1u << j);
        }
      }
      matrix |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
    }
    gfni[static_cast<std::size_t>(c)] = matrix;
  }
}

const Gf256::BulkTables& Gf256::bulk_tables() {
  static const BulkTables t;
  return t;
}

const std::uint8_t* Gf256::nibble_table(Gf c) {
  return bulk_tables().nib.data() + static_cast<std::size_t>(c) * 32;
}

std::uint64_t Gf256::gfni_matrix(Gf c) { return bulk_tables().gfni[c]; }

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

namespace {

// dst ^= src over n bytes, 8 at a time (the coef == 1 fast path).
void xor_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// Scalar tail of the split-nibble kernels: c*x = nib[x & 0xF] ^ nib[16 + (x >> 4)].
[[maybe_unused]] std::uint8_t nib_mul(const std::uint8_t* nib, std::uint8_t x) {
  return nib[x & 0xF] ^ nib[16 + (x >> 4)];
}

#if defined(LEOPARD_GF256_HAS_SSSE3)

// Split-nibble pshufb kernel: c*x = lo_tab[x & 0xF] ^ hi_tab[x >> 4], so one
// pshufb pair multiplies 16 bytes. Two pairs per iteration -> 32 bytes.
__attribute__((target("ssse3"))) void mul_add_row_ssse3(std::uint8_t* dst,
                                                        const std::uint8_t* src, std::size_t n,
                                                        const std::uint8_t* nib) {
  const __m128i lo_tab = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i hi_tab = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i s0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 16));
    const __m128i p0 = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, _mm_and_si128(s0, mask)),
                                     _mm_shuffle_epi8(hi_tab, _mm_and_si128(
                                                                  _mm_srli_epi64(s0, 4), mask)));
    const __m128i p1 = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, _mm_and_si128(s1, mask)),
                                     _mm_shuffle_epi8(hi_tab, _mm_and_si128(
                                                                  _mm_srli_epi64(s1, 4), mask)));
    __m128i d0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    __m128i d1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d0, p0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), _mm_xor_si128(d1, p1));
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, _mm_and_si128(s, mask)),
                                    _mm_shuffle_epi8(hi_tab, _mm_and_si128(
                                                                 _mm_srli_epi64(s, 4), mask)));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(nib, src[i]);
}

__attribute__((target("ssse3"))) void mul_row_ssse3(std::uint8_t* dst, const std::uint8_t* src,
                                                    std::size_t n, const std::uint8_t* nib) {
  const __m128i lo_tab = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i hi_tab = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo_tab, _mm_and_si128(s, mask)),
                                    _mm_shuffle_epi8(hi_tab, _mm_and_si128(
                                                                 _mm_srli_epi64(s, 4), mask)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  for (; i < n; ++i) dst[i] = nib_mul(nib, src[i]);
}

bool cpu_has_ssse3() { return __builtin_cpu_supports("ssse3") != 0; }
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_gfni() {
  return __builtin_cpu_supports("gfni") != 0 && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
}

// One vgf2p8affineqb multiplies 64 bytes by the coefficient's bit matrix —
// no per-coefficient table loads at all, just a broadcast qword. The 0..63
// byte tail runs masked in the same instruction.
__attribute__((target("gfni,avx512f,avx512bw"))) void mul_add_row_gfni(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n, std::uint64_t matrix) {
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(matrix));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i p = _mm512_gf2p8affine_epi64_epi8(s, a, 0);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, p));
  }
  if (i < n) {
    const __mmask64 m = ~std::uint64_t{0} >> (64 - (n - i));
    const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
    const __m512i p = _mm512_gf2p8affine_epi64_epi8(s, a, 0);
    const __m512i d = _mm512_maskz_loadu_epi8(m, dst + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_xor_si512(d, p));
  }
}

__attribute__((target("gfni,avx512f,avx512bw"))) void mul_row_gfni(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n, std::uint64_t matrix) {
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(matrix));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8affine_epi64_epi8(s, a, 0));
  }
  if (i < n) {
    const __mmask64 m = ~std::uint64_t{0} >> (64 - (n - i));
    const __m512i s = _mm512_maskz_loadu_epi8(m, src + i);
    _mm512_mask_storeu_epi8(dst + i, m, _mm512_gf2p8affine_epi64_epi8(s, a, 0));
  }
}

// AVX2 widening of the split-nibble kernel: the two 16-entry tables are
// broadcast into both halves of a ymm register (vpshufb shuffles within each
// 128-bit lane, so both halves need the same table) and each iteration
// multiplies 64 bytes.
__attribute__((target("avx2"))) void mul_add_row_avx2(std::uint8_t* dst,
                                                      const std::uint8_t* src, std::size_t n,
                                                      const std::uint8_t* nib) {
  const __m256i lo_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(s0, mask)),
        _mm256_shuffle_epi8(hi_tab, _mm256_and_si256(_mm256_srli_epi64(s0, 4), mask)));
    const __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(s1, mask)),
        _mm256_shuffle_epi8(hi_tab, _mm256_and_si256(_mm256_srli_epi64(s1, 4), mask)));
    const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d0, p0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), _mm256_xor_si256(d1, p1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi_tab, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, p));
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(nib, src[i]);
}

__attribute__((target("avx2"))) void mul_row_avx2(std::uint8_t* dst, const std::uint8_t* src,
                                                  std::size_t n, const std::uint8_t* nib) {
  const __m256i lo_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi_tab, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  for (; i < n; ++i) dst[i] = nib_mul(nib, src[i]);
}

#endif  // LEOPARD_GF256_HAS_SSSE3

#if defined(LEOPARD_GF256_HAS_NEON)

void mul_add_row_neon(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                      const std::uint8_t* nib) {
  const uint8x16_t lo_tab = vld1q_u8(nib);
  const uint8x16_t hi_tab = vld1q_u8(nib + 16);
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint8x16_t s0 = vld1q_u8(src + i);
    const uint8x16_t s1 = vld1q_u8(src + i + 16);
    const uint8x16_t p0 = veorq_u8(vqtbl1q_u8(lo_tab, vandq_u8(s0, mask)),
                                   vqtbl1q_u8(hi_tab, vshrq_n_u8(s0, 4)));
    const uint8x16_t p1 = veorq_u8(vqtbl1q_u8(lo_tab, vandq_u8(s1, mask)),
                                   vqtbl1q_u8(hi_tab, vshrq_n_u8(s1, 4)));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), p0));
    vst1q_u8(dst + i + 16, veorq_u8(vld1q_u8(dst + i + 16), p1));
  }
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t p = veorq_u8(vqtbl1q_u8(lo_tab, vandq_u8(s, mask)),
                                  vqtbl1q_u8(hi_tab, vshrq_n_u8(s, 4)));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), p));
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(nib, src[i]);
}

void mul_row_neon(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  const std::uint8_t* nib) {
  const uint8x16_t lo_tab = vld1q_u8(nib);
  const uint8x16_t hi_tab = vld1q_u8(nib + 16);
  const uint8x16_t mask = vdupq_n_u8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    vst1q_u8(dst + i, veorq_u8(vqtbl1q_u8(lo_tab, vandq_u8(s, mask)),
                               vqtbl1q_u8(hi_tab, vshrq_n_u8(s, 4))));
  }
  for (; i < n; ++i) dst[i] = nib_mul(nib, src[i]);
}

#endif  // LEOPARD_GF256_HAS_NEON

Gf256::Kernel detect_kernel() {
#if defined(LEOPARD_GF256_HAS_SSSE3)
  if (cpu_has_gfni()) return Gf256::Kernel::kGfni;
  if (cpu_has_avx2()) return Gf256::Kernel::kAvx2;
  if (cpu_has_ssse3()) return Gf256::Kernel::kSsse3;
#elif defined(LEOPARD_GF256_HAS_NEON)
  return Gf256::Kernel::kNeon;
#endif
  return Gf256::Kernel::kScalarRef;
}

std::atomic<Gf256::Kernel>& kernel_slot() {
  static std::atomic<Gf256::Kernel> k{detect_kernel()};
  return k;
}

}  // namespace

bool Gf256::kernel_available(Kernel k) {
  switch (k) {
    case Kernel::kScalarRef:
      return true;
    case Kernel::kSsse3:
#if defined(LEOPARD_GF256_HAS_SSSE3)
      return cpu_has_ssse3();
#else
      return false;
#endif
    case Kernel::kAvx2:
#if defined(LEOPARD_GF256_HAS_SSSE3)
      return cpu_has_avx2();
#else
      return false;
#endif
    case Kernel::kGfni:
#if defined(LEOPARD_GF256_HAS_SSSE3)
      return cpu_has_gfni();
#else
      return false;
#endif
    case Kernel::kNeon:
#if defined(LEOPARD_GF256_HAS_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Gf256::Kernel Gf256::active_kernel() { return kernel_slot().load(std::memory_order_relaxed); }

Gf256::Kernel Gf256::force_kernel(Kernel k) {
  if (!kernel_available(k)) k = detect_kernel();
  kernel_slot().store(k, std::memory_order_relaxed);
  return k;
}

const char* Gf256::kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kScalarRef:
      return "scalar_ref";
    case Kernel::kSsse3:
      return "ssse3";
    case Kernel::kNeon:
      return "neon";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kGfni:
      return "gfni";
  }
  return "unknown";
}

void Gf256::mul_add_row_ref(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                            Gf coef) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = add(dst[i], mul(coef, src[i]));
}

void Gf256::mul_row_ref(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = mul(coef, src[i]);
}

void Gf256::mul_add_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef) {
  if (coef == 0 || n == 0) return;
  if (coef == 1) {
    if (active_kernel() == Kernel::kScalarRef) {
      mul_add_row_ref(dst, src, n, coef);
    } else {
      xor_row(dst, src, n);
    }
    return;
  }
  switch (active_kernel()) {
#if defined(LEOPARD_GF256_HAS_SSSE3)
    case Kernel::kSsse3:
      mul_add_row_ssse3(dst, src, n, nibble_table(coef));
      return;
    case Kernel::kAvx2:
      mul_add_row_avx2(dst, src, n, nibble_table(coef));
      return;
    case Kernel::kGfni:
      mul_add_row_gfni(dst, src, n, gfni_matrix(coef));
      return;
#endif
#if defined(LEOPARD_GF256_HAS_NEON)
    case Kernel::kNeon:
      mul_add_row_neon(dst, src, n, nibble_table(coef));
      return;
#endif
    default:  // kScalarRef
      mul_add_row_ref(dst, src, n, coef);
      return;
  }
}

void Gf256::mul_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef) {
  if (n == 0) return;
  if (coef == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (coef == 1 && active_kernel() != Kernel::kScalarRef) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  switch (active_kernel()) {
#if defined(LEOPARD_GF256_HAS_SSSE3)
    case Kernel::kSsse3:
      mul_row_ssse3(dst, src, n, nibble_table(coef));
      return;
    case Kernel::kAvx2:
      mul_row_avx2(dst, src, n, nibble_table(coef));
      return;
    case Kernel::kGfni:
      mul_row_gfni(dst, src, n, gfni_matrix(coef));
      return;
#endif
#if defined(LEOPARD_GF256_HAS_NEON)
    case Kernel::kNeon:
      mul_row_neon(dst, src, n, nibble_table(coef));
      return;
#endif
    default:  // kScalarRef
      mul_row_ref(dst, src, n, coef);
      return;
  }
}

}  // namespace leopard::erasure
