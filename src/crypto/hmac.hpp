// HMAC-SHA-256 (RFC 2104), from scratch. Backs the deterministic threshold
// signature scheme (see threshold_sig.hpp for the substitution rationale).
//
// HmacContext is the keyed hot path: constructing it compresses the
// key ^ ipad / key ^ opad blocks once, so each mac() afterwards costs only
// the message blocks plus two finalization blocks — the per-message key
// schedule the free function pays on every call is amortized away. One
// context per authenticated link/signer key is the intended usage.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace leopard::crypto {

/// Reusable keyed HMAC-SHA-256 state with precomputed ipad/opad midstates.
class HmacContext {
 public:
  /// Empty context; mac() must not be called before init().
  HmacContext() = default;

  /// Precomputes the pad schedules for `key` (hashed first if > 64 bytes).
  explicit HmacContext(std::span<const std::uint8_t> key) { init(key); }

  /// (Re)keys the context.
  void init(std::span<const std::uint8_t> key);

  /// HMAC(key, message).
  [[nodiscard]] Sha256::DigestBytes mac(std::span<const std::uint8_t> message) const;

  /// HMAC(key_i, tag_i || m) into out[i] for i in [0, count), count <=
  /// Sha256::kMaxBatch: each lane has its own key (ctxs[i]) and domain tag
  /// (tags[i]) over one shared message, without materializing the
  /// concatenations. This is the threshold-signature evaluation shape: one
  /// signer's two tags for sign/verify, many signers' for batched vote
  /// verification. Messages short enough that tag||m pads into one block (the
  /// vote shape: m is a 32-byte digest) run the fused raw-block path — one
  /// prepared inner block per lane, then two compress_wide passes for the
  /// whole batch, no incremental-update machinery. Longer messages run
  /// through Sha256::update_many/finalize_many.
  static void mac_tagged_many(const HmacContext* const* ctxs, const std::uint8_t* tags,
                              std::size_t count, std::span<const std::uint8_t> message,
                              Sha256::DigestBytes* out);

 private:
  Sha256 inner_;  // midstate after absorbing key ^ ipad
  Sha256 outer_;  // midstate after absorbing key ^ opad
};

/// Computes HMAC-SHA-256(key, message). One-shot convenience; repeated calls
/// under one key should hold an HmacContext instead.
Sha256::DigestBytes hmac_sha256(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> message);

}  // namespace leopard::crypto
