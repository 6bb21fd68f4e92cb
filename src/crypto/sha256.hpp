// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the β = 32-byte collision-resistant hash H(·) used throughout the
// Leopard protocol: datablock/BFTblock digests, Merkle trees, vote targets.
//
// The compression function sits behind a runtime kernel dispatch mirroring
// erasure::Gf256 (see docs/PERF.md):
//
//   kPortable — the original from-scratch round loop, retained as the
//               byte-exact reference oracle for property tests;
//   kShaNi    — x86 SHA extensions (sha256rnds2/sha256msg1/sha256msg2),
//               one block in ~64 instructions;
//   kArmCe    — ARMv8 crypto extensions (sha256h/sha256h2/sha256su0/su1).
//
//   kAvx2     — 8-wide transposed multi-buffer: eight independent message
//               streams, one ymm register per working variable (lane j of
//               each register is stream j), the message schedule computed
//               with AVX2 32-bit ops. Single-stream calls fall back to the
//               portable loop — this kernel only pays off when several
//               streams are available.
//
// On top of the single-stream context there is one multi-buffer interface:
// hash_many() and the update_many()/finalize_many() drivers run up to
// kMaxBatch independent message streams through compress_wide(), which
// drives them wide_lanes() at a time — truly simultaneously on kAvx2, back to
// back (so the hardware dependency chains overlap in the out-of-order window)
// on the two-lane kShaNi/kArmCe drivers. Merkle leaf and interior hashing, the
// HMAC-based vote evaluation, and batched vote verification all have this
// n-lane shape.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace leopard::crypto {

/// Incremental SHA-256 context. Use Sha256::hash() for one-shot hashing.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using DigestBytes = std::array<std::uint8_t, kDigestSize>;

  // --- kernel dispatch ------------------------------------------------------

  /// Which compression-function implementation update/finalize dispatch to.
  /// kAvx2 is a multi-buffer kernel: its single-stream path is the portable
  /// loop, its n-lane path runs 8 streams per pass.
  enum class Kernel { kPortable, kShaNi, kArmCe, kAvx2 };

  /// Largest batch update_many/finalize_many/compress_wide accept per call.
  static constexpr std::size_t kMaxBatch = 16;

  /// Kernel currently in effect (auto-detected at startup, see force_kernel).
  static Kernel active_kernel();

  /// Human-readable name of `k` ("portable", "sha_ni", "arm_ce").
  static const char* kernel_name(Kernel k);

  /// Overrides dispatch, clamped to what this CPU supports; returns the
  /// kernel actually installed. Intended for tests and benches.
  static Kernel force_kernel(Kernel k);

  /// True if `k` can run on this CPU/build.
  static bool kernel_available(Kernel k);

  // --- single-stream API ----------------------------------------------------

  Sha256();

  /// Absorbs more input; can be called repeatedly.
  void update(std::span<const std::uint8_t> data);

  /// Finalizes and returns the digest. The context must not be reused after.
  DigestBytes finalize();

  /// One-shot convenience.
  static DigestBytes hash(std::span<const std::uint8_t> data);

  // --- multi-buffer interface -----------------------------------------------

  /// Hashes `count` equal-size rows laid out at base + i*stride (row i is
  /// `len` bytes): out[i] = H(prefix || row_i). Rows run in kMaxBatch groups
  /// through update_many/finalize_many. This is the Merkle hash_leaves shape,
  /// where the rows are erasure-coded shards back to back in an arena and
  /// `prefix` is the 1-byte domain-separation tag.
  static void hash_many(std::span<const std::uint8_t> prefix, const std::uint8_t* base,
                        std::size_t stride, std::size_t len, std::size_t count,
                        DigestBytes* out);

  /// Lanes the active kernel's multi-buffer driver runs per pass: 8 for
  /// kAvx2, 2 for kShaNi/kArmCe (the paired drivers), 1 for kPortable.
  static std::size_t wide_lanes();

  /// Absorbs data[i] into *ctxs[i] for i in [0, count), count <= kMaxBatch.
  /// Streams that stay block-aligned in lockstep (equal shapes — the
  /// hash_many case) run through the n-lane kernel; stragglers peel off into
  /// smaller compress_wide calls. Equivalent to ctxs[i]->update(data[i]) for each i.
  static void update_many(Sha256* const* ctxs, const std::span<const std::uint8_t>* data,
                          std::size_t count);

  /// Finalizes *ctxs[i] into out[i] for i in [0, count), count <= kMaxBatch,
  /// batching the padding blocks of like-shaped streams through the n-lane
  /// kernel. Equivalent to out[i] = ctxs[i]->finalize() for each i.
  static void finalize_many(Sha256* const* ctxs, DigestBytes* out, std::size_t count);

  // --- raw block interface (fused fixed-shape flows) ------------------------

  /// Exports the 8-word compression state. Only valid at a block boundary
  /// (no buffered partial input); HMAC midstates qualify by construction.
  /// Lets fused paths (HmacContext::mac_tagged_many) run prepared padded
  /// blocks through compress_wide without the incremental-update machinery.
  void export_midstate(std::uint32_t out[8]) const;

  /// n-lane raw compression: advances states[i] over blocks[i] (`nblocks`
  /// 64-byte blocks each) for i in [0, count), count <= kMaxBatch. Blocks
  /// must be fully padded already. Full wide_lanes() groups run through the
  /// kernel's multi-buffer driver, a tail of two or more lanes as one padded
  /// group, and a last lane alone. Lanes are independent — sharing a blocks
  /// pointer across lanes is allowed.
  static void compress_wide(std::uint32_t* const* states, const std::uint8_t* const* blocks,
                            std::size_t count, std::size_t nblocks);

 private:
  /// Tops the carry buffer up from `data` and compresses it once full;
  /// returns the unconsumed remainder. Post: buffered_ == 0 unless `data`
  /// ran out before filling a whole block.
  std::span<const std::uint8_t> drain_buffer(std::span<const std::uint8_t> data);

  /// Stores a sub-block tail into the carry buffer (tail.size() < 64).
  void stash_tail(std::span<const std::uint8_t> tail);

  /// Builds the final padded tail (1 or 2 blocks) into `tail`; returns the
  /// block count. Does not touch state_.
  std::size_t build_final_blocks(std::uint8_t* tail) const;

  /// Writes state_ out big-endian.
  void emit_digest(DigestBytes& out) const;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace leopard::crypto
