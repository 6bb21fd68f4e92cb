#include "crypto/threshold_sig.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace leopard::crypto {

ThresholdScheme::ThresholdScheme(std::uint32_t n, std::uint32_t threshold, std::uint64_t seed)
    : n_(n), threshold_(threshold) {
  util::expects(n >= 1, "threshold scheme needs at least one signer");
  util::expects(threshold >= 1 && threshold <= n, "threshold must be in [1, n]");

  // Trusted key generation: master key plus per-signer keys derived from it.
  // Each key's HMAC pad schedule is compressed once here; every subsequent
  // sign/verify reuses the midstates.
  util::Rng rng(seed ^ 0x7e0bafd5u);
  util::Bytes master_key(32);
  rng.fill(master_key.data(), master_key.size());
  master_ctx_.init(master_key);

  signer_ctxs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    util::ByteWriter w(32);
    w.str("leopard.tsig.signer");
    w.u32(i);
    const auto derived = master_ctx_.mac(w.bytes());
    signer_ctxs_.emplace_back(derived);
  }
}

void ThresholdScheme::evaluate_batch(const HmacContext* const* ctxs, std::size_t count,
                                     std::span<const std::uint8_t> message,
                                     SignatureBytes* out) {
  // 48-byte output per signer: HMAC(key, 0x00 || m) || first 16 bytes of
  // HMAC(key, 0x01 || m). All 2·count MACs share the message and carry no
  // data dependency on each other, so they run as one n-lane batch.
  util::expects(count <= kEvalBatch, "evaluate_batch: batch too large");
  const HmacContext* lanes[Sha256::kMaxBatch] = {};
  std::uint8_t tags[Sha256::kMaxBatch] = {};
  for (std::size_t i = 0; i < count; ++i) {
    lanes[i] = lanes[count + i] = ctxs[i];
    tags[i] = 0x00;
    tags[count + i] = 0x01;
  }
  Sha256::DigestBytes h[Sha256::kMaxBatch];
  HmacContext::mac_tagged_many(lanes, tags, 2 * count, message, h);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out[i].data(), h[i].data(), 32);
    std::memcpy(out[i].data() + 32, h[count + i].data(), 16);
  }
}

SignatureBytes ThresholdScheme::evaluate(const HmacContext& ctx,
                                         std::span<const std::uint8_t> message) {
  const HmacContext* lanes[1] = {&ctx};
  SignatureBytes out;
  evaluate_batch(lanes, 1, message, &out);
  return out;
}

SignatureShare ThresholdScheme::sign_share(SignerIndex i,
                                           std::span<const std::uint8_t> message) const {
  util::expects(i < n_, "signer index out of range");
  return SignatureShare{i, evaluate(signer_ctxs_[i], message)};
}

bool ThresholdScheme::verify_share(std::span<const std::uint8_t> message,
                                   const SignatureShare& share) const {
  if (share.signer >= n_) return false;
  return evaluate(signer_ctxs_[share.signer], message) == share.bytes;
}

std::optional<ThresholdSignature> ThresholdScheme::combine(
    std::span<const std::uint8_t> message, std::span<const SignatureShare> shares) const {
  // Count distinct signers with valid shares. Per-share validity is a pure
  // function, so it is computed first — SIMD-batched (kEvalBatch in-range
  // shares per evaluate_batch call) and, for combine bursts, fanned across
  // the worker pool — then folded into a distinctness bitmap serially. The
  // fold bitmap, not a linear scan: the scan was O(quorum²) at n >= 100.
  std::vector<std::uint8_t> valid(shares.size(), 0);
  const auto verify_range = [&](std::size_t i, std::size_t end) {
    while (i < end) {
      const HmacContext* ctxs[kEvalBatch];
      std::size_t at[kEvalBatch];
      std::size_t g = 0;
      for (; i < end && g < kEvalBatch; ++i) {
        if (shares[i].signer >= n_) continue;  // out of range: stays invalid
        ctxs[g] = &signer_ctxs_[shares[i].signer];
        at[g++] = i;
      }
      SignatureBytes expected[kEvalBatch];
      evaluate_batch(ctxs, g, message, expected);
      for (std::size_t l = 0; l < g; ++l) {
        valid[at[l]] = shares[at[l]].bytes == expected[l] ? 1 : 0;
      }
    }
  };

  // Quorum-sized bursts (and S sharded instances combining on one process)
  // split across the pool's lanes, chunked on batch boundaries so each lane
  // keeps full SIMD width. Lanes write disjoint flag ranges and the MAC
  // kernels are pure stack compute, so the flags — and therefore the
  // combine result — are identical for every pool size; small bursts and
  // the 1-lane pool run inline, bit-for-bit the old serial path.
  auto& pool = util::WorkerPool::global();
  if (pool.lanes() > 1 && shares.size() >= 2 * kEvalBatch) {
    pool.for_ranges(shares.size(), kEvalBatch,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      verify_range(begin, end);
                    });
  } else {
    verify_range(0, shares.size());
  }

  std::vector<std::uint64_t> seen_mask((n_ + 63) / 64, 0);
  std::uint32_t distinct_valid = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!valid[i]) continue;
    auto& word = seen_mask[shares[i].signer >> 6];
    const auto bit = std::uint64_t{1} << (shares[i].signer & 63);
    if ((word & bit) != 0) continue;
    word |= bit;
    ++distinct_valid;
  }

  if (distinct_valid < threshold_) return std::nullopt;
  // Unique-signature property: the combined value depends only on the message.
  return ThresholdSignature{evaluate(master_ctx_, message)};
}

bool ThresholdScheme::verify(std::span<const std::uint8_t> message,
                             const ThresholdSignature& sig) const {
  return evaluate(master_ctx_, message) == sig.bytes;
}

}  // namespace leopard::crypto
