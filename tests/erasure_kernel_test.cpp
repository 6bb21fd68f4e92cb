// Property tests for the vectorized GF(256) bulk kernels and the zero-copy
// encode_into/decode_into pipeline: every available kernel must be
// byte-identical to the retained scalar log/exp reference, across message
// sizes from empty to 1 MiB and a (k, n) grid with random erasure patterns.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "erasure/gf256.hpp"
#include "erasure/reed_solomon.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace le = leopard::erasure;
namespace lu = leopard::util;

namespace {

/// Restores the auto-detected kernel when a test that forces one exits.
class KernelGuard {
 public:
  KernelGuard() : prev_(le::Gf256::active_kernel()) {}
  ~KernelGuard() { le::Gf256::force_kernel(prev_); }

 private:
  le::Gf256::Kernel prev_;
};

std::vector<le::Gf256::Kernel> fast_kernels() {
  std::vector<le::Gf256::Kernel> out;
  for (const auto k : {le::Gf256::Kernel::kSsse3, le::Gf256::Kernel::kNeon,
                       le::Gf256::Kernel::kAvx2, le::Gf256::Kernel::kGfni}) {
    if (le::Gf256::kernel_available(k)) out.push_back(k);
  }
  return out;
}

lu::Bytes random_message(std::size_t size, std::uint64_t seed) {
  lu::Bytes msg(size);
  lu::Rng rng(seed);
  rng.fill(msg.data(), msg.size());
  return msg;
}

}  // namespace

TEST(Gf256Kernel, AtLeastOneFastKernelAvailable) {
  EXPECT_FALSE(fast_kernels().empty());
  // The auto-detected kernel must never be the reference loop.
  EXPECT_NE(le::Gf256::active_kernel(), le::Gf256::Kernel::kScalarRef);
}

TEST(Gf256Kernel, NibbleTableMatchesScalarMul) {
  for (int c = 0; c < 256; ++c) {
    const auto* nib = le::Gf256::nibble_table(static_cast<le::Gf>(c));
    for (int x = 0; x < 256; ++x) {
      const le::Gf expected = le::Gf256::mul(static_cast<le::Gf>(c), static_cast<le::Gf>(x));
      EXPECT_EQ(nib[x & 0xF] ^ nib[16 + (x >> 4)], expected) << "c=" << c << " x=" << x;
    }
  }
}

TEST(Gf256Kernel, MulAddRowMatchesReferenceForEveryCoefficient) {
  KernelGuard guard;
  // Odd length exercises the 32/16/8-byte main loops plus the scalar tail.
  const std::size_t n = 1003;
  const auto src = random_message(n, 101);
  const auto base = random_message(n, 102);

  for (int c = 0; c < 256; ++c) {
    const auto coef = static_cast<le::Gf>(c);
    lu::Bytes expected = base;
    le::Gf256::mul_add_row_ref(expected.data(), src.data(), n, coef);
    for (const auto kernel : fast_kernels()) {
      le::Gf256::force_kernel(kernel);
      lu::Bytes got = base;
      le::Gf256::mul_add_row(got.data(), src.data(), n, coef);
      EXPECT_EQ(got, expected) << "coef=" << c
                               << " kernel=" << le::Gf256::kernel_name(kernel);
    }
  }
}

TEST(Gf256Kernel, MulRowMatchesReferenceForEveryCoefficient) {
  KernelGuard guard;
  const std::size_t n = 517;
  const auto src = random_message(n, 103);

  for (int c = 0; c < 256; ++c) {
    const auto coef = static_cast<le::Gf>(c);
    lu::Bytes expected(n);
    le::Gf256::mul_row_ref(expected.data(), src.data(), n, coef);
    for (const auto kernel : fast_kernels()) {
      le::Gf256::force_kernel(kernel);
      lu::Bytes got(n, 0xAA);
      le::Gf256::mul_row(got.data(), src.data(), n, coef);
      EXPECT_EQ(got, expected) << "coef=" << c
                               << " kernel=" << le::Gf256::kernel_name(kernel);
    }
  }
}

TEST(Gf256Kernel, ShortBuffersHitTailPaths) {
  KernelGuard guard;
  lu::Rng rng(104);
  for (std::size_t n = 0; n <= 40; ++n) {
    lu::Bytes src(n), base(n);
    rng.fill(src.data(), src.size());
    rng.fill(base.data(), base.size());
    for (int c : {0, 1, 2, 0x53, 0xFF}) {
      lu::Bytes expected = base;
      le::Gf256::mul_add_row_ref(expected.data(), src.data(), n, static_cast<le::Gf>(c));
      for (const auto kernel : fast_kernels()) {
        le::Gf256::force_kernel(kernel);
        lu::Bytes got = base;
        le::Gf256::mul_add_row(got.data(), src.data(), n, static_cast<le::Gf>(c));
        EXPECT_EQ(got, expected) << "n=" << n << " coef=" << c;
      }
    }
  }
}

TEST(Gf256Kernel, PowLargeExponentReducedBeforeMultiply) {
  // Regression: (log(a) * e) overflowed 32-bit unsigned for large e.
  for (int a = 1; a < 256; ++a) {
    const auto base = static_cast<le::Gf>(a);
    for (const unsigned e : {255u, 256u, 65537u, 4000000000u, 4294967295u}) {
      // Square-and-multiply oracle.
      le::Gf expected = 1;
      le::Gf sq = base;
      for (unsigned bits = e; bits != 0; bits >>= 1) {
        if (bits & 1) expected = le::Gf256::mul(expected, sq);
        sq = le::Gf256::mul(sq, sq);
      }
      EXPECT_EQ(le::Gf256::pow(base, e), expected) << "a=" << a << " e=" << e;
    }
  }
  EXPECT_EQ(le::Gf256::pow(0, 0), 1);
  EXPECT_EQ(le::Gf256::pow(0, 4000000000u), 0);
}

// ---------------------------------------------------------------------------
// Encode/decode pipeline properties
// ---------------------------------------------------------------------------

namespace {

/// Encodes with the reference kernel and with every fast kernel; asserts all
/// outputs are byte-identical, then random-erasure round-trips each.
void check_kernel_parity(std::uint32_t k, std::uint32_t n, const lu::Bytes& msg,
                         int erasure_trials) {
  KernelGuard guard;
  const le::ReedSolomon rs(k, n);

  le::Gf256::force_kernel(le::Gf256::Kernel::kScalarRef);
  const auto ref_shards = rs.encode(msg);
  ASSERT_EQ(ref_shards.size(), n);

  for (const auto kernel : fast_kernels()) {
    le::Gf256::force_kernel(kernel);
    le::RsScratch scratch;
    const auto enc = rs.encode_into(msg, scratch);
    ASSERT_EQ(enc.count, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto view = enc.shard(i);
      ASSERT_TRUE(std::equal(view.begin(), view.end(), ref_shards[i].data.begin(),
                             ref_shards[i].data.end()))
          << "kernel=" << le::Gf256::kernel_name(kernel) << " k=" << k << " n=" << n
          << " size=" << msg.size() << " shard=" << i;
    }

    // Random k-subsets of survivors must reconstruct the message through the
    // zero-copy decode path (shard views borrow the reference shards).
    lu::Rng rng(k * 7919 + n * 31 + msg.size());
    for (int trial = 0; trial < erasure_trials; ++trial) {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
      std::vector<le::ShardView> survivors;
      for (std::uint32_t i = 0; i < k; ++i) {
        survivors.push_back(le::ShardView{ref_shards[order[i]].index,
                                          ref_shards[order[i]].data});
      }
      lu::Bytes out;
      ASSERT_TRUE(rs.decode_into(survivors, scratch, out));
      EXPECT_EQ(out, msg) << "kernel=" << le::Gf256::kernel_name(kernel) << " k=" << k
                          << " n=" << n << " size=" << msg.size();
    }
  }
}

}  // namespace

class KernelParitySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(KernelParitySweep, NewKernelsMatchScalarReference) {
  const auto [k, n] = GetParam();
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                                 std::size_t{64}, std::size_t{4096}}) {
    check_kernel_parity(k, n, random_message(size, size * 131 + k), /*erasure_trials=*/4);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelParitySweep,
                         ::testing::Values(std::make_tuple(1u, 4u), std::make_tuple(2u, 4u),
                                           std::make_tuple(3u, 7u), std::make_tuple(4u, 12u),
                                           std::make_tuple(8u, 24u), std::make_tuple(16u, 48u),
                                           std::make_tuple(32u, 96u),
                                           std::make_tuple(64u, 192u)));

TEST(KernelParity, OneMebibyteMessage) {
  // The large-message case runs on a smaller grid to bound test time; it is
  // the configuration the bench's 10x acceptance target uses (k=32).
  check_kernel_parity(4, 12, random_message(1 << 20, 7001), /*erasure_trials=*/2);
  check_kernel_parity(32, 96, random_message(1 << 20, 7002), /*erasure_trials=*/2);
}

TEST(EncodeInto, MatchesLegacyEncodeAndSharesArena) {
  const le::ReedSolomon rs(5, 11);
  const auto msg = random_message(3000, 42);
  const auto legacy = rs.encode(msg);

  le::RsScratch scratch;
  const auto enc = rs.encode_into(msg, scratch);
  ASSERT_EQ(enc.count, 11u);
  EXPECT_EQ(enc.width, rs.shard_size(msg.size()));
  // The arena is contiguous: shard(i) aliases bytes() at offset i*width.
  EXPECT_EQ(enc.bytes().size(), enc.width * enc.count);
  for (std::uint32_t i = 0; i < enc.count; ++i) {
    EXPECT_EQ(enc.shard(i).data(), enc.bytes().data() + i * enc.width);
    EXPECT_TRUE(std::equal(enc.shard(i).begin(), enc.shard(i).end(),
                           legacy[i].data.begin(), legacy[i].data.end()))
        << "shard " << i;
  }
}

TEST(EncodeInto, ScratchReuseAcrossSizesIsClean) {
  // A big encode followed by a small one must not leak stale arena bytes.
  const le::ReedSolomon rs(3, 9);
  le::RsScratch scratch;
  (void)rs.encode_into(random_message(100000, 1), scratch);
  const auto small = random_message(10, 2);
  const auto enc = rs.encode_into(small, scratch);
  const auto legacy = rs.encode(small);
  for (std::uint32_t i = 0; i < enc.count; ++i) {
    EXPECT_TRUE(std::equal(enc.shard(i).begin(), enc.shard(i).end(),
                           legacy[i].data.begin(), legacy[i].data.end()));
  }
  // Copy the shards out first: encode_into views alias the scratch arena and
  // are invalidated by the decode_into call below.
  std::vector<lu::Bytes> owned;
  for (std::uint32_t i = 3; i < 6; ++i) {
    owned.emplace_back(enc.shard(i).begin(), enc.shard(i).end());
  }
  std::vector<le::ShardView> views;
  for (std::uint32_t i = 0; i < 3; ++i) views.push_back(le::ShardView{3 + i, owned[i]});
  lu::Bytes out;
  ASSERT_TRUE(rs.decode_into(views, scratch, out));
  EXPECT_EQ(out, small);
}

TEST(EncodeInto, EmptyMessageRoundTrips) {
  // Regression: memcpy(dst, nullptr, 0) from an empty message was UB.
  const le::ReedSolomon rs(3, 5);
  le::RsScratch scratch;
  const auto enc = rs.encode_into({}, scratch);
  std::vector<le::ShardView> views;
  for (std::uint32_t i = 2; i < 5; ++i) views.push_back(le::ShardView{i, enc.shard(i)});
  lu::Bytes out(16, 0xFF);
  ASSERT_TRUE(rs.decode_into(views, scratch, out));
  EXPECT_TRUE(out.empty());
}

TEST(DecodeInto, CorruptLengthHeaderRejected) {
  // Regression: a corrupt header with len near UINT32_MAX made `len + 4`
  // wrap, passing the bounds check and reading far out of range.
  const le::ReedSolomon rs(2, 4);
  auto shards = rs.encode(random_message(16, 3));
  for (int i = 0; i < 4; ++i) shards[0].data[i] = 0xFF;  // len = UINT32_MAX
  EXPECT_FALSE(rs.decode(shards).has_value());

  le::RsScratch scratch;
  lu::Bytes out;
  const std::vector<le::ShardView> views = {le::ShardView{0, shards[0].data},
                                            le::ShardView{1, shards[1].data}};
  EXPECT_FALSE(rs.decode_into(views, scratch, out));
}

TEST(DecodeInto, ShardsTooSmallForHeaderRejected) {
  // Adversarial 1-byte shards cannot hold the 4-byte length header.
  const le::ReedSolomon rs(1, 2);
  const lu::Bytes tiny = {0x7F};
  le::RsScratch scratch;
  lu::Bytes out;
  const std::vector<le::ShardView> views = {le::ShardView{0, tiny}};
  EXPECT_FALSE(rs.decode_into(views, scratch, out));
}
