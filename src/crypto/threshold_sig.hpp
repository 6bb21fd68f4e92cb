// (2f+1, n)-threshold signature scheme TS = (TSig, TVrf, TSR) per §III-B.
//
// SUBSTITUTION (documented in DESIGN.md): the paper instantiates TS with
// threshold BLS (48-byte signatures over BN curves). Pairing-based crypto is
// unavailable offline, so this scheme is a deterministic keyed-hash
// construction with identical *protocol-visible* behaviour:
//   - per-replica signing keys tsk_i, a master public key, fixed-size shares;
//   - shares and combined signatures serialize to exactly κ = 48 bytes, so
//     every wire-size computation in the evaluation matches the paper's;
//   - TSR accepts any `threshold` distinct valid shares and produces the same
//     unique combined signature (threshold BLS is also a unique signature
//     scheme), so vote aggregation and proof forwarding behave identically;
//   - invalid, duplicate, or insufficient shares are rejected.
// Verification uses a process-local key registry (the scheme object shared by
// the simulation). Unforgeability holds in the simulated threat model: the
// adversary is code we wrote, and it has no access to other replicas' keys.
// BLS CPU costs are charged via the simulator's CostModel instead.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"
#include "util/bytes.hpp"

namespace leopard::crypto {

/// Index of a replica within the replica set, 0-based.
using SignerIndex = std::uint32_t;

/// κ = 48 bytes, matching threshold-BLS signature size used in the paper.
inline constexpr std::size_t kSignatureSize = 48;
using SignatureBytes = std::array<std::uint8_t, kSignatureSize>;

/// A single replica's vote: a threshold signature share ˆσ_i on a message.
struct SignatureShare {
  SignerIndex signer = 0;
  SignatureBytes bytes{};

  /// Wire size: 4-byte signer index + 48-byte share.
  static constexpr std::size_t kWireSize = 4 + kSignatureSize;

  friend bool operator==(const SignatureShare&, const SignatureShare&) = default;
};

/// A combined signature ˆσ = TSR(S): the notarization/confirmation proof.
struct ThresholdSignature {
  SignatureBytes bytes{};

  static constexpr std::size_t kWireSize = kSignatureSize;

  friend bool operator==(const ThresholdSignature&, const ThresholdSignature&) = default;
};

/// The threshold scheme instance shared by a cluster: key generation happens
/// at construction (trusted setup, as the paper assumes distributed keys are
/// in place: "Each replica holds a signature key pair ... known to all").
class ThresholdScheme {
 public:
  /// Creates keys for `n` signers with reconstruction threshold `threshold`
  /// (Leopard uses threshold = 2f + 1). Deterministic in `seed`.
  ThresholdScheme(std::uint32_t n, std::uint32_t threshold, std::uint64_t seed);

  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] std::uint32_t threshold() const { return threshold_; }

  /// TSig(tsk_i, m): deterministic share of signer `i` on `message`.
  [[nodiscard]] SignatureShare sign_share(SignerIndex i,
                                          std::span<const std::uint8_t> message) const;

  /// TVrf(tpk_i, ˆσ_i, m): checks a share against signer i's public key.
  [[nodiscard]] bool verify_share(std::span<const std::uint8_t> message,
                                  const SignatureShare& share) const;

  /// TSR(S): combines ≥ threshold distinct valid shares into the unique
  /// combined signature; returns nullopt if the set is insufficient/invalid.
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      std::span<const std::uint8_t> message,
      std::span<const SignatureShare> shares) const;

  /// TVrf(tpk, ˆσ, m): verifies a combined signature under the master key.
  [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                            const ThresholdSignature& sig) const;

  /// Convenience overloads for signing/verifying digests (the common case:
  /// votes are on H(m)).
  [[nodiscard]] SignatureShare sign_share(SignerIndex i, const Digest& d) const {
    return sign_share(i, d.bytes());
  }
  [[nodiscard]] bool verify_share(const Digest& d, const SignatureShare& s) const {
    return verify_share(d.bytes(), s);
  }
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      const Digest& d, std::span<const SignatureShare> shares) const {
    return combine(d.bytes(), shares);
  }
  [[nodiscard]] bool verify(const Digest& d, const ThresholdSignature& s) const {
    return verify(d.bytes(), s);
  }

 private:
  /// Most signers evaluate_batch takes per call: two MAC lanes each.
  static constexpr std::size_t kEvalBatch = Sha256::kMaxBatch / 2;

  /// The 48-byte value of one key over `message`: evaluate_batch's count = 1.
  [[nodiscard]] static SignatureBytes evaluate(const HmacContext& ctx,
                                               std::span<const std::uint8_t> message);

  /// Evaluates `count` <= kEvalBatch signers' 48-byte values over one
  /// message with one HmacContext::mac_tagged_many call over 2·count lanes
  /// (tag 0x00 lanes, then tag 0x01 lanes).
  static void evaluate_batch(const HmacContext* const* ctxs, std::size_t count,
                             std::span<const std::uint8_t> message, SignatureBytes* out);

  std::uint32_t n_;
  std::uint32_t threshold_;
  // Keyed HMAC midstates, precomputed once per key at setup: signing/verifying
  // a vote costs only the message blocks, not a fresh key schedule per call.
  HmacContext master_ctx_;
  std::vector<HmacContext> signer_ctxs_;
};

}  // namespace leopard::crypto
