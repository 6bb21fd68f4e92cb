#include "crypto/hmac.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace leopard::crypto {

void HmacContext::init(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const auto hashed = Sha256::hash(key);
    std::memcpy(key_block.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(key_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }

  inner_ = Sha256();
  outer_ = Sha256();
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256::DigestBytes HmacContext::mac(std::span<const std::uint8_t> message) const {
  Sha256 in = inner_;
  in.update(message);
  const auto inner_digest = in.finalize();

  Sha256 out = outer_;
  out.update(inner_digest);
  return out.finalize();
}

namespace {

constexpr std::size_t kBlock = Sha256::kBlockSize;

/// Longest tag||message that still pads into ONE inner block
/// (1 tag + len + 0x80 + 8-byte length <= 64).
constexpr std::size_t kFusedMaxMessage = kBlock - 10;

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

/// Word-wise rather than byte-wise: GCC -O3 vectorizes a per-byte version
/// across the lanes of mac_tagged_many's loops into a shuffle-heavy path that
/// only a full kMaxBatch batch takes, and that path ran ~50% slower per lane.
void store_be32x8(std::uint8_t* p, const std::uint32_t s[8]) {
  for (int i = 0; i < 8; ++i) {
    std::uint32_t be = s[i];
    if constexpr (std::endian::native == std::endian::little) be = __builtin_bswap32(be);
    std::memcpy(p + 4 * i, &be, sizeof(be));
  }
}

/// Builds the single padded inner block for HMAC(·, tag || message) on the
/// fused path; message.size() must be <= kFusedMaxMessage.
void build_fused_inner_block(std::uint8_t tag, std::span<const std::uint8_t> message,
                             std::uint8_t block[/*kBlock*/]) {
  std::memset(block, 0, kBlock);
  block[0] = tag;
  if (!message.empty()) std::memcpy(block + 1, message.data(), message.size());
  block[1 + message.size()] = 0x80;
  store_be64(block + kBlock - 8, static_cast<std::uint64_t>(kBlock + 1 + message.size()) * 8);
}

}  // namespace

void HmacContext::mac_tagged_many(const HmacContext* const* ctxs, const std::uint8_t* tags,
                                  std::size_t count, std::span<const std::uint8_t> message,
                                  Sha256::DigestBytes* out) {
  constexpr std::size_t kMax = Sha256::kMaxBatch;
  util::expects(count <= kMax, "mac_tagged_many: batch too large");
  if (count == 0) return;

  // Lane i compresses blocks[i] over states[i] in both passes.
  std::uint8_t blocks[kMax][kBlock];
  std::uint32_t states[kMax][8];
  std::uint32_t* st[kMax];
  const std::uint8_t* bl[kMax];
  for (std::size_t i = 0; i < count; ++i) {
    st[i] = states[i];
    bl[i] = blocks[i];
  }

  Sha256::DigestBytes inner[kMax];
  if (message.size() <= kFusedMaxMessage) {
    // Fused fixed-shape path (the vote hot path: message is a 32-byte
    // digest): one padded inner block per lane over that lane's ipad
    // midstate. No context copies, no incremental-update buffering.
    for (std::size_t i = 0; i < count; ++i) {
      build_fused_inner_block(tags[i], message, blocks[i]);
      ctxs[i]->inner_.export_midstate(states[i]);
    }
    Sha256::compress_wide(st, bl, count, 1);
    for (std::size_t i = 0; i < count; ++i) store_be32x8(inner[i].data(), states[i]);
  } else {
    // Long messages (rare — votes are digests): the incremental drivers.
    Sha256 in[kMax];
    Sha256* ptrs[kMax];
    std::span<const std::uint8_t> msgs[kMax];
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = ctxs[i]->inner_;
      in[i].update({&tags[i], 1});
      ptrs[i] = &in[i];
      msgs[i] = message;
    }
    Sha256::update_many(ptrs, msgs, count);
    Sha256::finalize_many(ptrs, inner, count);
  }

  // Outer hash: one padded block per lane (inner digest || padding) over the
  // lane's opad midstate.
  for (std::size_t i = 0; i < count; ++i) {
    std::memset(blocks[i], 0, kBlock);
    std::memcpy(blocks[i], inner[i].data(), Sha256::kDigestSize);
    blocks[i][Sha256::kDigestSize] = 0x80;
    store_be64(blocks[i] + kBlock - 8, (kBlock + Sha256::kDigestSize) * 8);
    ctxs[i]->outer_.export_midstate(states[i]);
  }
  Sha256::compress_wide(st, bl, count, 1);
  for (std::size_t i = 0; i < count; ++i) store_be32x8(out[i].data(), states[i]);
}

Sha256::DigestBytes hmac_sha256(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> message) {
  return HmacContext(key).mac(message);
}

}  // namespace leopard::crypto
