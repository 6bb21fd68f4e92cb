// SHA-256 / HMAC-SHA-256 correctness against published test vectors
// (FIPS 180-4 examples and RFC 4231), plus kernel-parity property sweeps:
// every available hardware kernel must be byte-identical to the portable
// reference across sizes, chunkings, and the multi-buffer drivers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace lc = leopard::crypto;
namespace lu = leopard::util;

namespace {

std::string hash_hex(std::string_view msg) {
  return lu::to_hex(lc::Sha256::hash(lu::as_bytes(msg)));
}

/// Restores the auto-detected kernel when a test that forces one exits.
class Sha256KernelGuard {
 public:
  Sha256KernelGuard() : prev_(lc::Sha256::active_kernel()) {}
  ~Sha256KernelGuard() { lc::Sha256::force_kernel(prev_); }

 private:
  lc::Sha256::Kernel prev_;
};

std::vector<lc::Sha256::Kernel> all_available_kernels() {
  std::vector<lc::Sha256::Kernel> out;
  for (const auto k : {lc::Sha256::Kernel::kPortable, lc::Sha256::Kernel::kShaNi,
                       lc::Sha256::Kernel::kArmCe, lc::Sha256::Kernel::kAvx2}) {
    if (lc::Sha256::kernel_available(k)) out.push_back(k);
  }
  return out;
}

lu::Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  lu::Bytes out(size);
  lu::Rng rng(seed);
  rng.fill(out.data(), out.size());
  return out;
}

}  // namespace

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  // FIPS 180-4 example #2 (448-bit message spanning the padding boundary).
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  lc::Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(lu::as_bytes(chunk));
  EXPECT_EQ(lu::to_hex(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, across block "
      "boundaries of the compression function to exercise buffering.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    lc::Sha256 ctx;
    ctx.update(lu::as_bytes(std::string_view(msg).substr(0, split)));
    ctx.update(lu::as_bytes(std::string_view(msg).substr(split)));
    EXPECT_EQ(lu::to_hex(ctx.finalize()), hash_hex(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockSizedMessages) {
  // 55/56/63/64/65 bytes straddle the padding rules.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    lc::Sha256 a;
    a.update(lu::as_bytes(msg));
    EXPECT_EQ(lu::to_hex(a.finalize()), hash_hex(msg)) << "len " << len;
  }
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  lc::Sha256 ctx;
  ctx.update(lu::as_bytes("abc"));
  (void)ctx.finalize();
  EXPECT_THROW(ctx.update(lu::as_bytes("more")), lu::ContractViolation);
  EXPECT_THROW((void)ctx.finalize(), lu::ContractViolation);
}

TEST(Digest, EqualityAndOrdering) {
  const auto a = lc::Digest::of_string("a");
  const auto b = lc::Digest::of_string("b");
  EXPECT_EQ(a, lc::Digest::of_string("a"));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(Digest, ZeroDetection) {
  lc::Digest zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(lc::Digest::of_string("x").is_zero());
}

TEST(Digest, HexFormats) {
  const auto d = lc::Digest::of_string("abc");
  EXPECT_EQ(d.hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(d.short_hex(), "ba7816bf");
}

TEST(Digest, Prefix64MatchesBytes) {
  const auto d = lc::Digest::of_string("abc");
  // First 8 bytes little-endian: ba 78 16 bf 8f 01 cf ea.
  EXPECT_EQ(d.prefix64(), 0xeacf018fbf1678baULL);
}

// RFC 4231 test cases for HMAC-SHA-256.
TEST(HmacSha256, Rfc4231Case1) {
  const auto key = lu::from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto result = lc::hmac_sha256(key, lu::as_bytes("Hi There"));
  EXPECT_EQ(lu::to_hex(result),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto result = lc::hmac_sha256(lu::as_bytes("Jefe"),
                                      lu::as_bytes("what do ya want for nothing?"));
  EXPECT_EQ(lu::to_hex(result),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3_FiftyBytes) {
  const auto key = lu::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(lu::to_hex(lc::hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6_LongKey) {
  // Key longer than the block size must be hashed first.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto result = lc::hmac_sha256(
      key, lu::as_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(lu::to_hex(result),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacContext, ReusedContextMatchesOneShot) {
  const auto key = lu::from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const lc::HmacContext ctx(key);
  // A context is reusable: repeated MACs under one key must all match the
  // one-shot function (which redoes the pad schedule every call).
  for (const std::string_view msg : {"Hi There", "", "another message entirely"}) {
    EXPECT_EQ(lu::to_hex(ctx.mac(lu::as_bytes(msg))),
              lu::to_hex(lc::hmac_sha256(key, lu::as_bytes(msg))))
        << "msg=" << msg;
  }
}

// ---------------------------------------------------------------------------
// Kernel dispatch and parity
// ---------------------------------------------------------------------------

TEST(Sha256Kernel, PortableAlwaysAvailable) {
  EXPECT_TRUE(lc::Sha256::kernel_available(lc::Sha256::Kernel::kPortable));
  // force_kernel clamps unsupported requests to the detected kernel.
  Sha256KernelGuard guard;
  const auto installed = lc::Sha256::force_kernel(lc::Sha256::Kernel::kPortable);
  EXPECT_EQ(installed, lc::Sha256::Kernel::kPortable);
  EXPECT_EQ(lc::Sha256::active_kernel(), lc::Sha256::Kernel::kPortable);
}

TEST(Sha256Kernel, FipsVectorsPassUnderEveryKernel) {
  Sha256KernelGuard guard;
  for (const auto kernel : all_available_kernels()) {
    lc::Sha256::force_kernel(kernel);
    SCOPED_TRACE(lc::Sha256::kernel_name(kernel));
    // FIPS 180-4 examples plus the NIST 896-bit two-block message.
    EXPECT_EQ(hash_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hash_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hash_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    lc::Sha256 ctx;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(lu::as_bytes(chunk));
    EXPECT_EQ(lu::to_hex(ctx.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256Kernel, ParitySweepAgainstPortableReference) {
  Sha256KernelGuard guard;
  // Sizes straddling every padding/buffering boundary up to 1 MiB.
  const std::size_t sizes[] = {0,   1,   3,    55,   56,    63,    64,       65,
                               127, 128, 129,  192,  1000,  4096,  65535,    65536,
                               1u << 20};
  for (const std::size_t size : sizes) {
    const auto msg = random_bytes(size, size * 2654435761u + 17);
    lc::Sha256::force_kernel(lc::Sha256::Kernel::kPortable);
    const auto expected = lc::Sha256::hash(msg);
    for (const auto kernel : all_available_kernels()) {
      lc::Sha256::force_kernel(kernel);
      EXPECT_EQ(lc::Sha256::hash(msg), expected)
          << "size=" << size << " kernel=" << lc::Sha256::kernel_name(kernel);
    }
  }
}

TEST(Sha256Kernel, ChunkedIncrementalUpdatesMatchOneShot) {
  Sha256KernelGuard guard;
  const auto msg = random_bytes(10000, 404);
  lc::Sha256::force_kernel(lc::Sha256::Kernel::kPortable);
  const auto expected = lc::Sha256::hash(msg);
  for (const auto kernel : all_available_kernels()) {
    lc::Sha256::force_kernel(kernel);
    // Deterministically varied chunk sizes exercise the carry-buffer paths:
    // sub-block dribbles, exact blocks, and multi-block spans.
    lu::Rng rng(505);
    lc::Sha256 ctx;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = std::min<std::size_t>(rng.uniform(300) + 1, msg.size() - off);
      ctx.update({msg.data() + off, take});
      off += take;
    }
    EXPECT_EQ(ctx.finalize(), expected) << lc::Sha256::kernel_name(kernel);
  }
}

TEST(Sha256Kernel, HashManyMatchesIndividualHashes) {
  Sha256KernelGuard guard;
  const std::uint8_t tag = 0x00;
  for (const auto kernel : all_available_kernels()) {
    lc::Sha256::force_kernel(kernel);
    // Counts straddling the batch boundaries (kMaxBatch groups, 8-lane and
    // 2-lane kernel groups, padded tail groups, single remainders), strides
    // equal to and larger than the row length.
    for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                    std::size_t{7}, std::size_t{8}, std::size_t{9},
                                    std::size_t{16}, std::size_t{31}}) {
      for (const std::size_t len : {std::size_t{1}, std::size_t{64}, std::size_t{1024}}) {
        const std::size_t stride = len + (count % 2 == 0 ? 0 : 8);
        const auto arena = random_bytes(stride * count, count * 1009 + len);
        std::vector<lc::Sha256::DigestBytes> got(count);
        lc::Sha256::hash_many({&tag, 1}, arena.data(), stride, len, count, got.data());
        for (std::size_t i = 0; i < count; ++i) {
          lc::Sha256 ref;
          ref.update({&tag, 1});
          ref.update({arena.data() + i * stride, len});
          EXPECT_EQ(got[i], ref.finalize())
              << "i=" << i << " count=" << count << " len=" << len << " kernel="
              << lc::Sha256::kernel_name(kernel);
        }
      }
    }
  }
}

TEST(Sha256Kernel, WideKernelParityVsPortableAcrossSizes) {
  Sha256KernelGuard guard;
  // The multi-buffer drivers must be byte-identical to the portable oracle
  // from the empty message up to 1 MiB rows, including every padding
  // boundary around one block.
  const std::size_t sizes[] = {0,  1,  31,  32,  54,   55,    56,     63,
                               64, 65, 127, 128, 1000, 65536, 1u << 20};
  for (const std::size_t len : sizes) {
    constexpr std::size_t kCount = 9;  // one full 8-lane group + a single
    const auto arena = random_bytes(std::max<std::size_t>(len, 1) * kCount, len * 77 + 5);
    lc::Sha256::force_kernel(lc::Sha256::Kernel::kPortable);
    std::vector<lc::Sha256::DigestBytes> expected(kCount);
    lc::Sha256::hash_many({}, arena.data(), len, len, kCount, expected.data());
    for (const auto kernel : all_available_kernels()) {
      if (kernel == lc::Sha256::Kernel::kPortable) continue;
      lc::Sha256::force_kernel(kernel);
      std::vector<lc::Sha256::DigestBytes> got(kCount);
      lc::Sha256::hash_many({}, arena.data(), len, len, kCount, got.data());
      EXPECT_EQ(got, expected) << "len=" << len
                               << " kernel=" << lc::Sha256::kernel_name(kernel);
    }
  }
}

TEST(Sha256Kernel, UpdateManyMatchesSequentialAcrossChunkBoundaries) {
  Sha256KernelGuard guard;
  // Asymmetric streams, equal-length twins among them: lanes top up carry
  // buffers, run dry mid-batch, and straddle block boundaries at different
  // offsets.
  constexpr std::size_t kLanes = 12;
  const std::size_t lens[kLanes] = {0, 0, 1, 63, 64, 64, 65, 200, 1000, 4096, 4096, 5000};
  std::vector<lu::Bytes> msgs;
  for (std::size_t l = 0; l < kLanes; ++l) msgs.push_back(random_bytes(lens[l], 70 + l));
  for (const auto kernel : all_available_kernels()) {
    lc::Sha256::force_kernel(kernel);
    // Feed every stream whole in one update_many call, then again in
    // deterministically ragged chunks.
    for (const bool ragged : {false, true}) {
      lc::Sha256 ctxs[kLanes];
      lc::Sha256* ptrs[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) ptrs[l] = &ctxs[l];
      lu::Rng rng(606);
      std::size_t off[kLanes] = {};
      bool progressed = true;
      while (progressed) {
        progressed = false;
        std::span<const std::uint8_t> chunks[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t left = msgs[l].size() - off[l];
          const std::size_t take = ragged ? std::min<std::size_t>(rng.uniform(150), left) : left;
          chunks[l] = {msgs[l].data() + off[l], take};
          off[l] += take;
          progressed = progressed || left > 0;
        }
        lc::Sha256::update_many(ptrs, chunks, kLanes);
      }
      lc::Sha256::DigestBytes out[kLanes];
      lc::Sha256::finalize_many(ptrs, out, kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        EXPECT_EQ(out[l], lc::Sha256::hash(msgs[l]))
            << "lane=" << l << " ragged=" << ragged
            << " kernel=" << lc::Sha256::kernel_name(kernel);
      }
    }
  }
}

TEST(HmacContext, TaggedManyMatchesOneShotMacsUnderEveryKernel) {
  Sha256KernelGuard guard;
  constexpr std::size_t kMax = lc::Sha256::kMaxBatch;
  // A distinct key and tag per lane within one call. Key lengths include
  // keys longer than a block (hashed first); tags include the threshold
  // scheme's 0x00/0x01 and arbitrary bytes.
  std::vector<lu::Bytes> keys;
  std::vector<lc::HmacContext> ctxs;
  std::uint8_t tags[kMax];
  for (std::size_t i = 0; i < kMax; ++i) {
    keys.push_back(random_bytes(1 + 9 * i, 930 + i));
    ctxs.emplace_back(keys.back());
    tags[i] = static_cast<std::uint8_t>(i < 2 ? i : 37 * i + 5);
  }
  const lc::HmacContext* ptrs[kMax + 1];
  for (std::size_t i = 0; i < kMax; ++i) ptrs[i] = &ctxs[i];
  ptrs[kMax] = &ctxs[0];

  for (const auto kernel : all_available_kernels()) {
    lc::Sha256::force_kernel(kernel);
    // 0..130 bytes: across the fused one-block boundary at 54/55 and into
    // multi-block inner hashes.
    for (std::size_t len = 0; len <= 130; ++len) {
      const auto msg = random_bytes(len, 940 + len);
      lc::Sha256::DigestBytes expected[kMax];
      for (std::size_t i = 0; i < kMax; ++i) {
        lu::Bytes cat{tags[i]};
        cat.insert(cat.end(), msg.begin(), msg.end());
        expected[i] = lc::hmac_sha256(keys[i], cat);
      }
      for (const std::size_t count : {0, 1, 2, 3, 7, 8, 9, 15, 16}) {
        lc::Sha256::DigestBytes out[kMax];
        lc::HmacContext::mac_tagged_many(ptrs, tags, count, msg, out);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], expected[i]) << "i=" << i << " count=" << count << " len=" << len
                                         << " kernel=" << lc::Sha256::kernel_name(kernel);
        }
      }
    }
  }

  std::uint8_t tags17[kMax + 1] = {};
  lc::Sha256::DigestBytes out17[kMax + 1];
  EXPECT_THROW(lc::HmacContext::mac_tagged_many(ptrs, tags17, kMax + 1, {}, out17),
               lu::ContractViolation);
}
