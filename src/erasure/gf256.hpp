// Arithmetic over GF(2^8) with the AES/RS-standard reduction polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D). Backs the Reed-Solomon erasure codes
// used by Leopard's datablock retrieval (§IV, Algorithm 3).
//
// Besides the scalar field ops, this header exposes the bulk row kernels the
// Reed-Solomon hot path is built on: dst ^= coef * src over whole shards.
// The implementations sit behind a runtime dispatch:
//
//   kScalarRef — the original branchy log/exp loop, retained as the
//                byte-exact reference for property tests and bench baselines,
//                and the dispatch target of a build with no SIMD tier;
//   kSsse3     — the ISA-L/klauspost split-nibble technique: two 16-entry
//                tables per coefficient, 32 bytes per iteration via pshufb
//                (NEON tbl on aarch64 builds);
//   kAvx2      — the same split-nibble technique widened to 32-byte lanes:
//                the nibble tables are broadcast into both 128-bit halves of
//                a ymm register and vpshufb shuffles within each half, 64
//                bytes per iteration;
//   kGfni      — Galois Field New Instructions: vgf2p8affineqb multiplies 64
//                bytes per instruction by an 8×8 bit matrix. The instruction's
//                native field uses the AES polynomial 0x11B, not our 0x11D, so
//                each coefficient is precomputed as the bit matrix of "multiply
//                by c over 0x11D" — affine transforms express multiplication by
//                a constant in ANY GF(2^8) representation. Needs gfni+avx512bw.
//
// All kernels produce byte-identical output; tests sweep every available
// kernel against kScalarRef.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace leopard::erasure {

/// Field element.
using Gf = std::uint8_t;

/// Table-driven GF(2^8) operations; tables are built once at static init.
class Gf256 {
 public:
  static Gf add(Gf a, Gf b) { return a ^ b; }
  static Gf sub(Gf a, Gf b) { return a ^ b; }
  static Gf mul(Gf a, Gf b);
  static Gf div(Gf a, Gf b);  // b must be non-zero
  static Gf inv(Gf a);        // a must be non-zero
  static Gf exp(int power);   // generator^power (power taken mod 255)
  static Gf pow(Gf a, unsigned e);

  // --- bulk row kernels (the erasure-coding hot path) ----------------------

  /// Which bulk implementation mul_row/mul_add_row dispatch to.
  enum class Kernel { kScalarRef, kSsse3, kNeon, kAvx2, kGfni };

  /// Kernel currently in effect (auto-detected at startup, see force_kernel).
  static Kernel active_kernel();

  /// Human-readable name of `k` ("scalar_ref", "ssse3", "neon", "avx2",
  /// "gfni").
  static const char* kernel_name(Kernel k);

  /// Overrides dispatch, clamped to what this CPU supports; returns the
  /// kernel actually installed. Intended for tests and benches.
  static Kernel force_kernel(Kernel k);

  /// True if `k` can run on this CPU/build.
  static bool kernel_available(Kernel k);

  /// dst[i] ^= coef * src[i] for i in [0, n). The multiply-accumulate inner
  /// step of every Reed-Solomon encode/decode. dst and src must not overlap
  /// unless dst == src.
  static void mul_add_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef);

  /// dst[i] = coef * src[i] for i in [0, n).
  static void mul_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef);

  /// The original log/exp-per-byte loops, kept as the property-test oracle.
  static void mul_add_row_ref(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                              Gf coef);
  static void mul_row_ref(std::uint8_t* dst, const std::uint8_t* src, std::size_t n, Gf coef);

  /// Split-nibble tables for `c`: 32 bytes, [0,16) low-nibble products
  /// c*(x & 0xF), [16,32) high-nibble products c*(x << 4). c*x is the XOR of
  /// one entry from each half.
  static const std::uint8_t* nibble_table(Gf c);

  /// 8×8 bit matrix (vgf2p8affineqb operand layout: qword byte 7-i is output
  /// bit i's row) such that the affine transform of x by it equals c*x over
  /// our 0x11D field.
  static std::uint64_t gfni_matrix(Gf c);

 private:
  struct Tables {
    std::array<Gf, 512> exp{};
    std::array<int, 256> log{};
    Tables();
  };
  static const Tables& tables();

  struct BulkTables {
    // nib[c * 32 + i]      = c * i          (i < 16)
    // nib[c * 32 + 16 + i] = c * (i << 4)   (i < 16)
    std::array<std::uint8_t, 256 * 32> nib{};
    // gfni[c] = bit matrix of "multiply by c" for vgf2p8affineqb (2 KiB).
    std::array<std::uint64_t, 256> gfni{};
    BulkTables();
  };
  static const BulkTables& bulk_tables();
};

}  // namespace leopard::erasure
