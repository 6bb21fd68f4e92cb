#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/check.hpp"
#include "util/worker_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#define LEOPARD_SHA256_HAS_SHANI 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#define LEOPARD_SHA256_HAS_ARMCE 1
#endif

namespace leopard::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// ---------------------------------------------------------------------------
// Portable kernel (the reference oracle)
// ---------------------------------------------------------------------------

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline std::uint32_t big_sigma0(std::uint32_t x) { return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22); }
inline std::uint32_t big_sigma1(std::uint32_t x) { return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25); }
inline std::uint32_t small_sigma0(std::uint32_t x) { return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3); }
inline std::uint32_t small_sigma1(std::uint32_t x) { return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10); }
inline std::uint32_t ch(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline std::uint32_t maj(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  while (nblocks-- > 0) {
    const std::uint8_t* block = data;
    data += Sha256::kBlockSize;

    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + big_sigma1(e) + ch(e, f, g) + kRoundConstants[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// ---------------------------------------------------------------------------
// x86 SHA-NI kernel
// ---------------------------------------------------------------------------

#if defined(LEOPARD_SHA256_HAS_SHANI)

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if ((ebx & (1u << 29)) == 0) return false;  // CPUID.7.0:EBX.SHA
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // The kernel also uses pshufb (SSSE3) and pblendw (SSE4.1).
  return (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
}

// One 64-byte block on the (ABEF, CDGH) register layout the sha256rnds2
// instruction wants. Marked always_inline so compress_shani_x2 lays two
// independent dependency chains into one instruction window — the hardware's
// out-of-order engine then overlaps them, which is where the multi-buffer
// speedup comes from (sha256rnds2 has multi-cycle latency but pipelines).
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void shani_one_block(
    __m128i& state0, __m128i& state1, const std::uint8_t* p) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0)), bswap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)), bswap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)), bswap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)), bswap);
  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;
  __m128i msg;

// Four rounds: add the round constants for group `g` to the current message
// vector and run both sha256rnds2 halves.
#define LEOPARD_SHANI_ROUNDS4(g, cur)                                               \
  msg = _mm_add_epi32(                                                              \
      (cur), _mm_load_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * (g)]))); \
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);                              \
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E))

// Message-schedule step: extend `dst` (the next w-quad) from the quad that
// just finished (`cur`) and its predecessor (`prev`).
#define LEOPARD_SHANI_SCHED(dst, cur, prev) \
  (dst) = _mm_sha256msg2_epu32(_mm_add_epi32((dst), _mm_alignr_epi8((cur), (prev), 4)), (cur))

  LEOPARD_SHANI_ROUNDS4(0, m0);
  LEOPARD_SHANI_ROUNDS4(1, m1);
  m0 = _mm_sha256msg1_epu32(m0, m1);
  LEOPARD_SHANI_ROUNDS4(2, m2);
  m1 = _mm_sha256msg1_epu32(m1, m2);
  LEOPARD_SHANI_ROUNDS4(3, m3);
  LEOPARD_SHANI_SCHED(m0, m3, m2);
  m2 = _mm_sha256msg1_epu32(m2, m3);
  LEOPARD_SHANI_ROUNDS4(4, m0);
  LEOPARD_SHANI_SCHED(m1, m0, m3);
  m3 = _mm_sha256msg1_epu32(m3, m0);
  LEOPARD_SHANI_ROUNDS4(5, m1);
  LEOPARD_SHANI_SCHED(m2, m1, m0);
  m0 = _mm_sha256msg1_epu32(m0, m1);
  LEOPARD_SHANI_ROUNDS4(6, m2);
  LEOPARD_SHANI_SCHED(m3, m2, m1);
  m1 = _mm_sha256msg1_epu32(m1, m2);
  LEOPARD_SHANI_ROUNDS4(7, m3);
  LEOPARD_SHANI_SCHED(m0, m3, m2);
  m2 = _mm_sha256msg1_epu32(m2, m3);
  LEOPARD_SHANI_ROUNDS4(8, m0);
  LEOPARD_SHANI_SCHED(m1, m0, m3);
  m3 = _mm_sha256msg1_epu32(m3, m0);
  LEOPARD_SHANI_ROUNDS4(9, m1);
  LEOPARD_SHANI_SCHED(m2, m1, m0);
  m0 = _mm_sha256msg1_epu32(m0, m1);
  LEOPARD_SHANI_ROUNDS4(10, m2);
  LEOPARD_SHANI_SCHED(m3, m2, m1);
  m1 = _mm_sha256msg1_epu32(m1, m2);
  LEOPARD_SHANI_ROUNDS4(11, m3);
  LEOPARD_SHANI_SCHED(m0, m3, m2);
  m2 = _mm_sha256msg1_epu32(m2, m3);
  LEOPARD_SHANI_ROUNDS4(12, m0);
  LEOPARD_SHANI_SCHED(m1, m0, m3);
  m3 = _mm_sha256msg1_epu32(m3, m0);
  LEOPARD_SHANI_ROUNDS4(13, m1);
  LEOPARD_SHANI_SCHED(m2, m1, m0);
  LEOPARD_SHANI_ROUNDS4(14, m2);
  LEOPARD_SHANI_SCHED(m3, m2, m1);
  LEOPARD_SHANI_ROUNDS4(15, m3);

#undef LEOPARD_SHANI_SCHED
#undef LEOPARD_SHANI_ROUNDS4

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);
}

// Converts the flat {a..h} state into the (ABEF, CDGH) register pair.
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void shani_load_state(
    const std::uint32_t* state, __m128i& state0, __m128i& state1) {
  __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));      // a b c d
  __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // e f g h
  lo = _mm_shuffle_epi32(lo, 0xB1);                                           // CDAB
  hi = _mm_shuffle_epi32(hi, 0x1B);                                           // EFGH
  state0 = _mm_alignr_epi8(lo, hi, 8);                                        // ABEF
  state1 = _mm_blend_epi16(hi, lo, 0xF0);                                     // CDGH
}

__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void shani_store_state(
    std::uint32_t* state, __m128i state0, __m128i state1) {
  state0 = _mm_shuffle_epi32(state0, 0x1B);                                     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);                                     // DCHG
  const __m128i lo = _mm_blend_epi16(state0, state1, 0xF0);                     // DCBA
  const __m128i hi = _mm_alignr_epi8(state1, state0, 8);                        // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hi);
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(std::uint32_t* state,
                                                               const std::uint8_t* data,
                                                               std::size_t nblocks) {
  __m128i s0, s1;
  shani_load_state(state, s0, s1);
  while (nblocks-- > 0) {
    shani_one_block(s0, s1, data);
    data += Sha256::kBlockSize;
  }
  shani_store_state(state, s0, s1);
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani_x2(
    std::uint32_t* state_a, const std::uint8_t* da, std::uint32_t* state_b,
    const std::uint8_t* db, std::size_t nblocks) {
  __m128i a0, a1, b0, b1;
  shani_load_state(state_a, a0, a1);
  shani_load_state(state_b, b0, b1);
  while (nblocks-- > 0) {
    shani_one_block(a0, a1, da);
    shani_one_block(b0, b1, db);
    da += Sha256::kBlockSize;
    db += Sha256::kBlockSize;
  }
  shani_store_state(state_a, a0, a1);
  shani_store_state(state_b, b0, b1);
}

#endif  // LEOPARD_SHA256_HAS_SHANI

// ---------------------------------------------------------------------------
// x86 transposed multi-buffer kernel (AVX2 8-wide)
//
// The classic SHA-256-MB technique: N independent message streams, one vector
// register per working variable whose lane j belongs to stream j. Every round
// and every message-schedule step is an ordinary 32-bit vector op, so the
// kernel needs no SHA ISA at all — it is the fast path for multi-stream work
// on CPUs whose only SHA option would otherwise be the portable loop. Blocks
// are loaded per lane and transposed in registers (8x8 32-bit transpose) so
// w[i] holds word i of all lanes.
// ---------------------------------------------------------------------------

// x86-64 only; an i386 build falls back to the portable/SHA-NI dispatch.
#if defined(__x86_64__)
#define LEOPARD_SHA256_HAS_X86_WIDE 1

bool cpu_has_avx2_sha() { return __builtin_cpu_supports("avx2") != 0; }

#define LEOPARD_AVX2_FN __attribute__((target("avx2"), always_inline)) static inline

LEOPARD_AVX2_FN __m256i v8_add(__m256i a, __m256i b) { return _mm256_add_epi32(a, b); }
LEOPARD_AVX2_FN __m256i v8_xor(__m256i a, __m256i b) { return _mm256_xor_si256(a, b); }
LEOPARD_AVX2_FN __m256i v8_and(__m256i a, __m256i b) { return _mm256_and_si256(a, b); }

template <int N>
LEOPARD_AVX2_FN __m256i v8_rotr(__m256i x) {
  return _mm256_or_si256(_mm256_srli_epi32(x, N), _mm256_slli_epi32(x, 32 - N));
}
LEOPARD_AVX2_FN __m256i v8_big_sigma0(__m256i x) {
  return v8_xor(v8_rotr<2>(x), v8_xor(v8_rotr<13>(x), v8_rotr<22>(x)));
}
LEOPARD_AVX2_FN __m256i v8_big_sigma1(__m256i x) {
  return v8_xor(v8_rotr<6>(x), v8_xor(v8_rotr<11>(x), v8_rotr<25>(x)));
}
LEOPARD_AVX2_FN __m256i v8_small_sigma0(__m256i x) {
  return v8_xor(v8_rotr<7>(x), v8_xor(v8_rotr<18>(x), _mm256_srli_epi32(x, 3)));
}
LEOPARD_AVX2_FN __m256i v8_small_sigma1(__m256i x) {
  return v8_xor(v8_rotr<17>(x), v8_xor(v8_rotr<19>(x), _mm256_srli_epi32(x, 10)));
}
LEOPARD_AVX2_FN __m256i v8_ch(__m256i e, __m256i f, __m256i g) {
  return v8_xor(v8_and(e, f), _mm256_andnot_si256(e, g));
}
LEOPARD_AVX2_FN __m256i v8_maj(__m256i a, __m256i b, __m256i c) {
  return v8_xor(v8_and(a, b), v8_and(c, v8_xor(a, b)));
}

/// Eight lanes, `nblocks` 64-byte blocks each: states[l] advances over
/// blocks[l]. Lanes are fully independent streams.
__attribute__((target("avx2"))) void compress_avx2_x8(std::uint32_t* const* states,
                                                      const std::uint8_t* const* blocks,
                                                      std::size_t nblocks) {
  // Transposed state load: s[j] lane l = states[l][j].
  __m256i s[8];
  alignas(32) std::uint32_t tmp[8];
  for (int j = 0; j < 8; ++j) {
    for (int l = 0; l < 8; ++l) tmp[l] = states[l][j];
    s[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
  }
  // Byte swap within each 32-bit element (per 128-bit half, as vpshufb works).
  const __m256i bswap = _mm256_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
                                         3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t off = blk * Sha256::kBlockSize;
    // Load+transpose the 16 message words of all 8 lanes, one 8-word half at
    // a time (rows = per-lane word runs, columns = per-word lane vectors).
    __m256i w[16];
    for (int half = 0; half < 2; ++half) {
      __m256i r[8], t[8], u[8];
      for (int l = 0; l < 8; ++l) {
        r[l] = _mm256_shuffle_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks[l] + off + 32 * half)),
            bswap);
      }
      for (int p = 0; p < 4; ++p) {
        t[2 * p] = _mm256_unpacklo_epi32(r[2 * p], r[2 * p + 1]);
        t[2 * p + 1] = _mm256_unpackhi_epi32(r[2 * p], r[2 * p + 1]);
      }
      u[0] = _mm256_unpacklo_epi64(t[0], t[2]);
      u[1] = _mm256_unpackhi_epi64(t[0], t[2]);
      u[2] = _mm256_unpacklo_epi64(t[1], t[3]);
      u[3] = _mm256_unpackhi_epi64(t[1], t[3]);
      u[4] = _mm256_unpacklo_epi64(t[4], t[6]);
      u[5] = _mm256_unpackhi_epi64(t[4], t[6]);
      u[6] = _mm256_unpacklo_epi64(t[5], t[7]);
      u[7] = _mm256_unpackhi_epi64(t[5], t[7]);
      for (int j = 0; j < 4; ++j) {
        w[8 * half + j] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x20);
        w[8 * half + 4 + j] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x31);
      }
    }

    __m256i a = s[0], b = s[1], c = s[2], d = s[3];
    __m256i e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; ++i) {
      __m256i wi;
      if (i < 16) {
        wi = w[i];
      } else {
        wi = v8_add(v8_add(v8_small_sigma1(w[(i - 2) & 15]), w[(i - 7) & 15]),
                    v8_add(v8_small_sigma0(w[(i - 15) & 15]), w[i & 15]));
        w[i & 15] = wi;
      }
      const __m256i t1 = v8_add(v8_add(h, v8_big_sigma1(e)),
                                v8_add(v8_ch(e, f, g),
                                       v8_add(_mm256_set1_epi32(
                                                  static_cast<int>(kRoundConstants[i])),
                                              wi)));
      const __m256i t2 = v8_add(v8_big_sigma0(a), v8_maj(a, b, c));
      h = g;
      g = f;
      f = e;
      e = v8_add(d, t1);
      d = c;
      c = b;
      b = a;
      a = v8_add(t1, t2);
    }
    s[0] = v8_add(s[0], a);
    s[1] = v8_add(s[1], b);
    s[2] = v8_add(s[2], c);
    s[3] = v8_add(s[3], d);
    s[4] = v8_add(s[4], e);
    s[5] = v8_add(s[5], f);
    s[6] = v8_add(s[6], g);
    s[7] = v8_add(s[7], h);
  }

  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), s[j]);
    for (int l = 0; l < 8; ++l) states[l][j] = tmp[l];
  }
}

#undef LEOPARD_AVX2_FN

#endif  // LEOPARD_SHA256_HAS_X86_WIDE

// ---------------------------------------------------------------------------
// ARMv8 crypto-extension kernel
// ---------------------------------------------------------------------------

#if defined(LEOPARD_SHA256_HAS_ARMCE)

#if defined(__clang__)
#define LEOPARD_ARMCE_TARGET __attribute__((target("sha2")))
#else
#define LEOPARD_ARMCE_TARGET __attribute__((target("arch=armv8-a+crypto")))
#endif

bool cpu_has_arm_sha2() {
#if defined(__ARM_FEATURE_SHA2)
  return true;  // baked into the build target
#elif defined(__linux__)
#ifndef HWCAP_SHA2
#define HWCAP_SHA2 (1 << 6)
#endif
  return (getauxval(AT_HWCAP) & HWCAP_SHA2) != 0;
#elif defined(__APPLE__)
  return true;  // all Apple Silicon has the SHA-2 extensions
#else
  return false;
#endif
}

LEOPARD_ARMCE_TARGET __attribute__((always_inline)) inline void armce_one_block(
    uint32x4_t& abcd, uint32x4_t& efgh, const std::uint8_t* p) {
  const uint32x4_t abcd_save = abcd;
  const uint32x4_t efgh_save = efgh;
  uint32x4_t m0 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p + 0)));
  uint32x4_t m1 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p + 16)));
  uint32x4_t m2 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p + 32)));
  uint32x4_t m3 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p + 48)));
  uint32x4_t wk, prev_abcd;

// Four rounds with the constants of group `g`; `cur` is the w-quad entering
// these rounds.
#define LEOPARD_ARMCE_ROUNDS4(g, cur)                        \
  wk = vaddq_u32((cur), vld1q_u32(&kRoundConstants[4 * (g)])); \
  prev_abcd = abcd;                                          \
  abcd = vsha256hq_u32(abcd, efgh, wk);                      \
  efgh = vsha256h2q_u32(efgh, prev_abcd, wk)

// Message-schedule step: w-quad `w` extended from the following three quads.
#define LEOPARD_ARMCE_SCHED(w, wa, wb, wc) \
  (w) = vsha256su1q_u32(vsha256su0q_u32((w), (wa)), (wb), (wc))

  LEOPARD_ARMCE_ROUNDS4(0, m0);
  LEOPARD_ARMCE_SCHED(m0, m1, m2, m3);
  LEOPARD_ARMCE_ROUNDS4(1, m1);
  LEOPARD_ARMCE_SCHED(m1, m2, m3, m0);
  LEOPARD_ARMCE_ROUNDS4(2, m2);
  LEOPARD_ARMCE_SCHED(m2, m3, m0, m1);
  LEOPARD_ARMCE_ROUNDS4(3, m3);
  LEOPARD_ARMCE_SCHED(m3, m0, m1, m2);
  LEOPARD_ARMCE_ROUNDS4(4, m0);
  LEOPARD_ARMCE_SCHED(m0, m1, m2, m3);
  LEOPARD_ARMCE_ROUNDS4(5, m1);
  LEOPARD_ARMCE_SCHED(m1, m2, m3, m0);
  LEOPARD_ARMCE_ROUNDS4(6, m2);
  LEOPARD_ARMCE_SCHED(m2, m3, m0, m1);
  LEOPARD_ARMCE_ROUNDS4(7, m3);
  LEOPARD_ARMCE_SCHED(m3, m0, m1, m2);
  LEOPARD_ARMCE_ROUNDS4(8, m0);
  LEOPARD_ARMCE_SCHED(m0, m1, m2, m3);
  LEOPARD_ARMCE_ROUNDS4(9, m1);
  LEOPARD_ARMCE_SCHED(m1, m2, m3, m0);
  LEOPARD_ARMCE_ROUNDS4(10, m2);
  LEOPARD_ARMCE_SCHED(m2, m3, m0, m1);
  LEOPARD_ARMCE_ROUNDS4(11, m3);
  LEOPARD_ARMCE_SCHED(m3, m0, m1, m2);
  LEOPARD_ARMCE_ROUNDS4(12, m0);
  LEOPARD_ARMCE_ROUNDS4(13, m1);
  LEOPARD_ARMCE_ROUNDS4(14, m2);
  LEOPARD_ARMCE_ROUNDS4(15, m3);

#undef LEOPARD_ARMCE_SCHED
#undef LEOPARD_ARMCE_ROUNDS4

  abcd = vaddq_u32(abcd, abcd_save);
  efgh = vaddq_u32(efgh, efgh_save);
}

LEOPARD_ARMCE_TARGET void compress_armce(std::uint32_t* state, const std::uint8_t* data,
                                         std::size_t nblocks) {
  uint32x4_t abcd = vld1q_u32(state);
  uint32x4_t efgh = vld1q_u32(state + 4);
  while (nblocks-- > 0) {
    armce_one_block(abcd, efgh, data);
    data += Sha256::kBlockSize;
  }
  vst1q_u32(state, abcd);
  vst1q_u32(state + 4, efgh);
}

LEOPARD_ARMCE_TARGET void compress_armce_x2(std::uint32_t* state_a, const std::uint8_t* da,
                                            std::uint32_t* state_b, const std::uint8_t* db,
                                            std::size_t nblocks) {
  uint32x4_t a_abcd = vld1q_u32(state_a);
  uint32x4_t a_efgh = vld1q_u32(state_a + 4);
  uint32x4_t b_abcd = vld1q_u32(state_b);
  uint32x4_t b_efgh = vld1q_u32(state_b + 4);
  while (nblocks-- > 0) {
    armce_one_block(a_abcd, a_efgh, da);
    armce_one_block(b_abcd, b_efgh, db);
    da += Sha256::kBlockSize;
    db += Sha256::kBlockSize;
  }
  vst1q_u32(state_a, a_abcd);
  vst1q_u32(state_a + 4, a_efgh);
  vst1q_u32(state_b, b_abcd);
  vst1q_u32(state_b + 4, b_efgh);
}

#endif  // LEOPARD_SHA256_HAS_ARMCE

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);
using CompressX2Fn = void (*)(std::uint32_t*, const std::uint8_t*, std::uint32_t*,
                              const std::uint8_t*, std::size_t);
using CompressWideFn = void (*)(std::uint32_t* const*, const std::uint8_t* const*,
                                std::size_t);

/// Adapts a two-block driver (SHA-NI, ARM CE) to the fixed-lane n-buffer
/// signature, so every multi-buffer kernel is reached through one pointer.
template <CompressX2Fn X2>
void compress_lanes2(std::uint32_t* const* states, const std::uint8_t* const* blocks,
                     std::size_t nblocks) {
  X2(states[0], blocks[0], states[1], blocks[1], nblocks);
}

struct KernelOps {
  CompressFn compress = nullptr;
  CompressWideFn compress_wide = nullptr;  // fixed-lane n-buffer driver (or null)
  std::size_t wide_lanes = 1;              // lanes compress_wide runs per pass
};

KernelOps ops_for(Sha256::Kernel k) {
  switch (k) {
#if defined(LEOPARD_SHA256_HAS_SHANI)
    case Sha256::Kernel::kShaNi:
      return {&compress_shani, &compress_lanes2<&compress_shani_x2>, 2};
#endif
#if defined(LEOPARD_SHA256_HAS_ARMCE)
    case Sha256::Kernel::kArmCe:
      return {&compress_armce, &compress_lanes2<&compress_armce_x2>, 2};
#endif
#if defined(LEOPARD_SHA256_HAS_X86_WIDE)
    case Sha256::Kernel::kAvx2:
      return {&compress_portable, &compress_avx2_x8, 8};
#endif
    default:
      return {&compress_portable, nullptr, 1};
  }
}

Sha256::Kernel detect_kernel() {
#if defined(LEOPARD_SHA256_HAS_SHANI)
  if (cpu_has_sha_ni()) return Sha256::Kernel::kShaNi;
#endif
#if defined(LEOPARD_SHA256_HAS_X86_WIDE)
  // No SHA ISA: the transposed multi-buffer kernel still beats the portable
  // loop wherever several streams are in flight (hash_many, batched votes);
  // its single-stream path IS the portable loop, so nothing regresses.
  if (cpu_has_avx2_sha()) return Sha256::Kernel::kAvx2;
#endif
#if defined(LEOPARD_SHA256_HAS_ARMCE)
  if (cpu_has_arm_sha2()) return Sha256::Kernel::kArmCe;
#endif
  return Sha256::Kernel::kPortable;
}

std::atomic<Sha256::Kernel>& kernel_slot() {
  static std::atomic<Sha256::Kernel> k{detect_kernel()};
  return k;
}

KernelOps active_ops() { return ops_for(kernel_slot().load(std::memory_order_relaxed)); }

}  // namespace

bool Sha256::kernel_available(Kernel k) {
  switch (k) {
    case Kernel::kPortable:
      return true;
    case Kernel::kShaNi:
#if defined(LEOPARD_SHA256_HAS_SHANI)
      return cpu_has_sha_ni();
#else
      return false;
#endif
    case Kernel::kArmCe:
#if defined(LEOPARD_SHA256_HAS_ARMCE)
      return cpu_has_arm_sha2();
#else
      return false;
#endif
    case Kernel::kAvx2:
#if defined(LEOPARD_SHA256_HAS_X86_WIDE)
      return cpu_has_avx2_sha();
#else
      return false;
#endif
  }
  return false;
}

Sha256::Kernel Sha256::active_kernel() { return kernel_slot().load(std::memory_order_relaxed); }

Sha256::Kernel Sha256::force_kernel(Kernel k) {
  if (!kernel_available(k)) k = detect_kernel();
  kernel_slot().store(k, std::memory_order_relaxed);
  return k;
}

const char* Sha256::kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kPortable:
      return "portable";
    case Kernel::kShaNi:
      return "sha_ni";
    case Kernel::kArmCe:
      return "arm_ce";
    case Kernel::kAvx2:
      return "avx2_x8";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Single-stream context
// ---------------------------------------------------------------------------

Sha256::Sha256() { state_ = kInitialState; }

std::span<const std::uint8_t> Sha256::drain_buffer(std::span<const std::uint8_t> data) {
  // (guarded: memcpy from a null data() of an empty span is UB)
  if (buffered_ == 0 || data.empty()) return data;
  const std::size_t take = std::min(kBlockSize - buffered_, data.size());
  std::memcpy(buffer_.data() + buffered_, data.data(), take);
  buffered_ += take;
  if (buffered_ == kBlockSize) {
    active_ops().compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  return data.subspan(take);
}

void Sha256::stash_tail(std::span<const std::uint8_t> tail) {
  if (tail.empty()) return;
  std::memcpy(buffer_.data() + buffered_, tail.data(), tail.size());
  buffered_ += tail.size();
}

void Sha256::update(std::span<const std::uint8_t> data) {
  util::expects(!finalized_, "Sha256 reused after finalize");
  total_bytes_ += data.size();
  data = drain_buffer(data);
  const std::size_t nblocks = data.size() / kBlockSize;
  if (nblocks > 0) {
    active_ops().compress(state_.data(), data.data(), nblocks);
    data = data.subspan(nblocks * kBlockSize);
  }
  stash_tail(data);
}

std::size_t Sha256::build_final_blocks(std::uint8_t* tail) const {
  // buffered message bytes || 0x80 || zeros || 8-byte big-endian bit length.
  std::size_t len = buffered_;
  std::memcpy(tail, buffer_.data(), len);
  tail[len++] = 0x80;
  const std::size_t nblocks = (len + 8 > kBlockSize) ? 2 : 1;
  const std::size_t padded = nblocks * kBlockSize;
  std::memset(tail + len, 0, padded - len - 8);
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[padded - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return nblocks;
}

void Sha256::emit_digest(DigestBytes& out) const {
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

Sha256::DigestBytes Sha256::finalize() {
  util::expects(!finalized_, "Sha256 reused after finalize");
  finalized_ = true;
  std::array<std::uint8_t, 2 * kBlockSize> tail;
  const std::size_t nblocks = build_final_blocks(tail.data());
  active_ops().compress(state_.data(), tail.data(), nblocks);
  DigestBytes out;
  emit_digest(out);
  return out;
}

Sha256::DigestBytes Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

// ---------------------------------------------------------------------------
// Raw block interface
// ---------------------------------------------------------------------------

void Sha256::export_midstate(std::uint32_t out[8]) const {
  util::expects(buffered_ == 0 && !finalized_,
                "export_midstate requires a block-aligned, live context");
  std::memcpy(out, state_.data(), sizeof(state_));
}

std::size_t Sha256::wide_lanes() { return active_ops().wide_lanes; }

void Sha256::compress_wide(std::uint32_t* const* states, const std::uint8_t* const* blocks,
                           std::size_t count, std::size_t nblocks) {
  util::expects(count <= kMaxBatch, "compress_wide: batch too large");
  if (count == 0 || nblocks == 0) return;
  const KernelOps ops = active_ops();
  std::size_t i = 0;
  if (ops.compress_wide != nullptr) {
    for (; i + ops.wide_lanes <= count; i += ops.wide_lanes) {
      ops.compress_wide(states + i, blocks + i, nblocks);
    }
    // Pad a short tail group with throwaway lanes rather than dropping to the
    // single-stream path: garbage columns cost nothing extra, and lanes are
    // independent so the real columns are unaffected.
    if (count - i >= 2) {
      std::uint32_t dummy[8];
      std::memcpy(dummy, kInitialState.data(), sizeof(dummy));
      std::uint32_t* st[kMaxBatch];
      const std::uint8_t* bl[kMaxBatch];
      for (std::size_t l = 0; l < ops.wide_lanes; ++l) {
        st[l] = i + l < count ? states[i + l] : dummy;
        bl[l] = i + l < count ? blocks[i + l] : blocks[i];
      }
      ops.compress_wide(st, bl, nblocks);
      i = count;
    }
  }
  for (; i < count; ++i) ops.compress(states[i], blocks[i], nblocks);
}

// ---------------------------------------------------------------------------
// Multi-buffer drivers
// ---------------------------------------------------------------------------

void Sha256::update_many(Sha256* const* ctxs, const std::span<const std::uint8_t>* data,
                         std::size_t count) {
  util::expects(count <= kMaxBatch, "update_many: batch too large");
  std::span<const std::uint8_t> rest[kMaxBatch];
  for (std::size_t i = 0; i < count; ++i) {
    util::expects(!ctxs[i]->finalized_, "Sha256 reused after finalize");
    ctxs[i]->total_bytes_ += data[i].size();
    rest[i] = data[i];
  }

  // Phase 1: top carry buffers up; the lanes whose buffer fills compress the
  // buffered block as one batch (equal-shaped streams all fill together).
  std::uint32_t* st[kMaxBatch];
  const std::uint8_t* bl[kMaxBatch];
  std::size_t filled[kMaxBatch];
  std::size_t nfill = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Sha256& c = *ctxs[i];
    if (c.buffered_ == 0 || rest[i].empty()) continue;
    const std::size_t take = std::min(kBlockSize - c.buffered_, rest[i].size());
    std::memcpy(c.buffer_.data() + c.buffered_, rest[i].data(), take);
    c.buffered_ += take;
    rest[i] = rest[i].subspan(take);
    if (c.buffered_ == kBlockSize) {
      st[nfill] = c.state_.data();
      bl[nfill] = c.buffer_.data();
      filled[nfill] = i;
      ++nfill;
    }
  }
  compress_wide(st, bl, nfill, 1);
  for (std::size_t j = 0; j < nfill; ++j) ctxs[filled[j]]->buffered_ = 0;

  // Phase 2: whole blocks, batched over the lanes still holding full blocks.
  // Like-shaped streams (the hash_many case) stay in lockstep and run one
  // n-lane pass; ragged shapes peel off as they run dry.
  std::size_t off[kMaxBatch] = {};
  std::size_t nblocks[kMaxBatch];
  for (std::size_t i = 0; i < count; ++i) nblocks[i] = rest[i].size() / kBlockSize;
  for (;;) {
    std::size_t active[kMaxBatch];
    std::size_t nactive = 0;
    std::size_t common = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t left = nblocks[i] - off[i];
      if (left == 0) continue;
      common = nactive == 0 ? left : std::min(common, left);
      active[nactive++] = i;
    }
    if (nactive == 0) break;
    for (std::size_t j = 0; j < nactive; ++j) {
      const std::size_t i = active[j];
      st[j] = ctxs[i]->state_.data();
      bl[j] = rest[i].data() + off[i] * kBlockSize;
    }
    compress_wide(st, bl, nactive, common);
    for (std::size_t j = 0; j < nactive; ++j) off[active[j]] += common;
  }

  // Phase 3: stash the sub-block tails.
  for (std::size_t i = 0; i < count; ++i) {
    ctxs[i]->stash_tail(rest[i].subspan(nblocks[i] * kBlockSize));
  }
}

void Sha256::finalize_many(Sha256* const* ctxs, DigestBytes* out, std::size_t count) {
  util::expects(count <= kMaxBatch, "finalize_many: batch too large");
  std::uint8_t tails[kMaxBatch][2 * kBlockSize];
  std::size_t tail_blocks[kMaxBatch];
  for (std::size_t i = 0; i < count; ++i) {
    util::expects(!ctxs[i]->finalized_, "Sha256 reused after finalize");
    ctxs[i]->finalized_ = true;
    tail_blocks[i] = ctxs[i]->build_final_blocks(tails[i]);
  }
  // Batch the one-block finishes together, then the two-block finishes.
  for (std::size_t want = 1; want <= 2; ++want) {
    std::uint32_t* st[kMaxBatch];
    const std::uint8_t* bl[kMaxBatch];
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (tail_blocks[i] != want) continue;
      st[n] = ctxs[i]->state_.data();
      bl[n] = tails[i];
      ++n;
    }
    compress_wide(st, bl, n, want);
  }
  for (std::size_t i = 0; i < count; ++i) ctxs[i]->emit_digest(out[i]);
}

namespace {

/// hash_many over one row range, on the calling thread: groups of up to
/// kMaxBatch rows through the multi-buffer drivers.
void hash_many_rows(std::span<const std::uint8_t> prefix, const std::uint8_t* base,
                    std::size_t stride, std::size_t len, std::size_t count,
                    Sha256::DigestBytes* out) {
  for (std::size_t i = 0; i < count;) {
    const std::size_t g = std::min(Sha256::kMaxBatch, count - i);
    Sha256 ctxs[Sha256::kMaxBatch];
    Sha256* ptrs[Sha256::kMaxBatch];
    std::span<const std::uint8_t> rows[Sha256::kMaxBatch];
    for (std::size_t l = 0; l < g; ++l) {
      if (!prefix.empty()) ctxs[l].update(prefix);
      ptrs[l] = &ctxs[l];
      rows[l] = {base + (i + l) * stride, len};
    }
    Sha256::update_many(ptrs, rows, g);
    Sha256::finalize_many(ptrs, out + i, g);
    i += g;
  }
}

/// Don't fan hash_many out across the pool below this much hashed data — a
/// dispatch costs a cv wake per worker (~µs), which only amortizes against
/// arena-scale inputs (Merkle trees over whole datablocks).
constexpr std::size_t kHashManyParallelMin = 128 * 1024;

}  // namespace

void Sha256::hash_many(std::span<const std::uint8_t> prefix, const std::uint8_t* base,
                       std::size_t stride, std::size_t len, std::size_t count,
                       DigestBytes* out) {
  util::expects(count == 0 || base != nullptr, "hash_many: null rows");
  // Large arenas split by row range across the worker pool (each lane then
  // runs the n-lane kernel on its rows). Rows are independent one-shot
  // hashes, so the digests are identical for every pool size.
  auto& pool = util::WorkerPool::global();
  if (pool.lanes() > 1 && count >= 2 * pool.lanes() &&
      count * (len + prefix.size()) >= kHashManyParallelMin) {
    pool.for_ranges(count, wide_lanes(), [&](std::size_t, std::size_t b, std::size_t e) {
      hash_many_rows(prefix, base + b * stride, stride, len, e - b, out + b);
    });
    return;
  }
  hash_many_rows(prefix, base, stride, len, count, out);
}

}  // namespace leopard::crypto
