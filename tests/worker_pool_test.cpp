// Worker-pool determinism and parity: the pool's static partition must cover
// ranges exactly, pool sizes {1,2,4,8} must produce byte-identical erasure
// encodes and Merkle roots against the serial path under every GF(256)
// kernel, n-lane hashing must be pool-size-invariant, and the dispatch
// machinery must survive a TSan-checked stress mix, two dispatching threads
// included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "erasure/gf256.hpp"
#include "erasure/reed_solomon.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace lc = leopard::crypto;
namespace le = leopard::erasure;
namespace lu = leopard::util;

namespace {

/// Restores the global pool to serial when a test exits.
class PoolGuard {
 public:
  ~PoolGuard() { lu::WorkerPool::global().resize(1); }
};

lu::Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  lu::Bytes out(size);
  lu::Rng rng(seed);
  rng.fill(out.data(), out.size());
  return out;
}

std::vector<le::Gf256::Kernel> all_gf_kernels() {
  std::vector<le::Gf256::Kernel> out;
  for (const auto k :
       {le::Gf256::Kernel::kScalarRef, le::Gf256::Kernel::kScalar64,
        le::Gf256::Kernel::kSsse3, le::Gf256::Kernel::kNeon, le::Gf256::Kernel::kAvx2}) {
    if (le::Gf256::kernel_available(k)) out.push_back(k);
  }
  return out;
}

}  // namespace

TEST(WorkerPoolPartition, ChunksAreDisjointAlignedAndCovering) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{1u << 20}}) {
    for (const std::size_t align : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                      std::size_t{8}}) {
        std::size_t covered = 0;
        std::size_t prev_end = 0;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const auto [b, e] = lu::WorkerPool::chunk_of(count, align, lanes, lane);
          ASSERT_LE(b, e);
          if (lane > 0) {
            EXPECT_EQ(b, prev_end);  // contiguous, in lane order
          }
          if (b < e && e < count) {
            EXPECT_EQ(e % align, 0u) << "interior boundary must be aligned";
          }
          covered += e - b;
          prev_end = e;
        }
        EXPECT_EQ(covered, count)
            << "count=" << count << " align=" << align << " lanes=" << lanes;
        EXPECT_EQ(prev_end, count);
      }
    }
  }
}

TEST(WorkerPool, RunsEveryElementExactlyOnce) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    pool.resize(lanes);
    EXPECT_EQ(pool.lanes(), lanes);
    std::vector<std::atomic<int>> hits(10007);
    pool.for_ranges(hits.size(), 16, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " lanes=" << lanes;
    }
  }
}

TEST(WorkerPool, EncodeParityAcrossPoolSizesAndKernels) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  const auto prev_kernel = le::Gf256::active_kernel();
  // Shard width large enough to clear the parallel-dispatch threshold.
  const std::uint32_t k = 8, n = 24;
  const le::ReedSolomon rs(k, n);
  const auto msg = random_bytes(64 * 1024 * k - 4, 12345);

  for (const auto kernel : all_gf_kernels()) {
    le::Gf256::force_kernel(kernel);
    pool.resize(1);
    le::RsScratch serial_scratch;
    const auto serial = rs.encode_into(msg, serial_scratch);
    const lu::Bytes serial_bytes(serial.bytes().begin(), serial.bytes().end());
    const auto serial_root =
        lc::MerkleTree(lc::MerkleTree::hash_leaves(serial.bytes(), serial.width)).root();

    for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      pool.resize(lanes);
      le::RsScratch scratch;
      const auto enc = rs.encode_into(msg, scratch);
      ASSERT_EQ(enc.width, serial.width);
      ASSERT_EQ(enc.count, serial.count);
      EXPECT_TRUE(std::memcmp(enc.base, serial_bytes.data(), serial_bytes.size()) == 0)
          << "kernel=" << le::Gf256::kernel_name(kernel) << " lanes=" << lanes;
      const auto root =
          lc::MerkleTree(lc::MerkleTree::hash_leaves(enc.bytes(), enc.width)).root();
      EXPECT_EQ(root, serial_root)
          << "kernel=" << le::Gf256::kernel_name(kernel) << " lanes=" << lanes;
    }
  }
  le::Gf256::force_kernel(prev_kernel);
}

TEST(WorkerPool, HashManyParityAcrossPoolSizes) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  // Large enough to clear the hash_many fan-out threshold at every size.
  const std::size_t len = 1024, count = 512;
  const auto arena = random_bytes(len * count, 777);
  const std::uint8_t tag = 0x00;

  pool.resize(1);
  std::vector<lc::Sha256::DigestBytes> serial(count);
  lc::Sha256::hash_many({&tag, 1}, arena.data(), len, len, count, serial.data());

  for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    pool.resize(lanes);
    std::vector<lc::Sha256::DigestBytes> got(count);
    lc::Sha256::hash_many({&tag, 1}, arena.data(), len, len, count, got.data());
    EXPECT_EQ(got, serial) << "lanes=" << lanes;
  }
}

TEST(WorkerPool, DecodeRoundTripsPoolEncodedShards) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  pool.resize(4);
  const std::uint32_t k = 8, n = 24;
  const le::ReedSolomon rs(k, n);
  const auto msg = random_bytes(200 * 1024, 31337);
  le::RsScratch scratch;
  const auto enc = rs.encode_into(msg, scratch);

  // Parity-only survivors force the full inversion path over pool-encoded rows.
  std::vector<lu::Bytes> stash;
  std::vector<le::ShardView> survivors;
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto view = enc.shard(n - 1 - i);
    stash.emplace_back(view.begin(), view.end());
    survivors.push_back(le::ShardView{n - 1 - i, stash.back()});
  }
  le::RsScratch dec_scratch;
  lu::Bytes out;
  ASSERT_TRUE(rs.decode_into(survivors, dec_scratch, out));
  EXPECT_EQ(out, msg);
}

TEST(WorkerPool, DecodeParityAcrossPoolSizesAndKernels) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  const auto prev_kernel = le::Gf256::active_kernel();
  // Shard width large enough to clear the parallel-dispatch threshold, so
  // the decode inversion apply actually fans out (same shape as encode).
  const std::uint32_t k = 8, n = 24;
  const le::ReedSolomon rs(k, n);
  const auto msg = random_bytes(64 * 1024 * k - 4, 424242);

  pool.resize(1);
  le::RsScratch enc_scratch;
  const auto enc = rs.encode_into(msg, enc_scratch);

  // Mixed survivor set: drop half the data rows so reconstruction needs the
  // inversion apply (not the systematic memcpy fast path).
  std::vector<lu::Bytes> stash;
  std::vector<le::ShardView> survivors;
  for (std::uint32_t i = k / 2; i < k; ++i) {
    const auto view = enc.shard(i);
    stash.emplace_back(view.begin(), view.end());
  }
  for (std::uint32_t i = 0; i < k / 2; ++i) {
    const auto view = enc.shard(k + 2 * i);  // every other parity row
    stash.emplace_back(view.begin(), view.end());
  }
  for (std::size_t i = 0; i < stash.size(); ++i) {
    const std::uint32_t index =
        i < k / 2 ? k / 2 + static_cast<std::uint32_t>(i)
                  : k + 2 * (static_cast<std::uint32_t>(i) - k / 2);
    survivors.push_back(le::ShardView{index, stash[i]});
  }

  for (const auto kernel : all_gf_kernels()) {
    le::Gf256::force_kernel(kernel);
    pool.resize(1);
    le::RsScratch serial_scratch;
    lu::Bytes serial_out;
    ASSERT_TRUE(rs.decode_into(survivors, serial_scratch, serial_out));
    ASSERT_EQ(serial_out, msg);

    for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      pool.resize(lanes);
      le::RsScratch scratch;
      lu::Bytes out;
      ASSERT_TRUE(rs.decode_into(survivors, scratch, out));
      EXPECT_EQ(out, serial_out)
          << "kernel=" << le::Gf256::kernel_name(kernel) << " lanes=" << lanes;
    }
  }
  le::Gf256::force_kernel(prev_kernel);
}

// The TSan target: hammer dispatch/teardown with verification. Each
// iteration's result is checked against a serial reduction, so any lost or
// duplicated chunk (and any data race TSan can see) fails loudly.
TEST(WorkerPoolStress, RepeatedDispatchAndResizeUnderLoad) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  lu::Rng rng(99);
  std::vector<std::uint64_t> data(1 << 16);
  for (auto& v : data) v = rng.uniform(1u << 30);
  const std::uint64_t expected = std::accumulate(data.begin(), data.end(), std::uint64_t{0});

  for (int iter = 0; iter < 200; ++iter) {
    if (iter % 25 == 0) pool.resize(1 + iter / 25 % 8);
    const std::size_t count = 1 + rng.uniform(static_cast<std::uint32_t>(data.size()));
    std::uint64_t partial[lu::WorkerPool::kMaxLanes] = {};
    pool.for_ranges(count, 1 + rng.uniform(64),
                    [&](std::size_t lane, std::size_t b, std::size_t e) {
                      std::uint64_t acc = 0;
                      for (std::size_t i = b; i < e; ++i) acc += data[i];
                      partial[lane] = acc;  // disjoint per-lane slot
                    });
    std::uint64_t got = 0;
    for (const auto v : partial) got += v;
    const std::uint64_t want =
        std::accumulate(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(count),
                        std::uint64_t{0});
    ASSERT_EQ(got, want) << "iter=" << iter;
  }
  pool.resize(8);
  // A final full-array pass at max lanes.
  std::uint64_t partial[lu::WorkerPool::kMaxLanes] = {};
  pool.for_ranges(data.size(), 64, [&](std::size_t lane, std::size_t b, std::size_t e) {
    std::uint64_t acc = 0;
    for (std::size_t i = b; i < e; ++i) acc += data[i];
    partial[lane] = acc;
  });
  EXPECT_EQ(std::accumulate(partial, partial + lu::WorkerPool::kMaxLanes, std::uint64_t{0}),
            expected);
}

// Two threads dispatch into one multi-lane pool at once, as the nodes of an
// in-process cluster do: each job must still run every element exactly once
// and neither dispatcher may hang waiting on the other's lanes.
TEST(WorkerPoolStress, ConcurrentDispatchersEachSeeWholeJobs) {
  PoolGuard guard;
  auto& pool = lu::WorkerPool::global();
  pool.resize(4);
  constexpr int kJobs = 200;
  const auto dispatcher = [&pool](std::uint8_t tag, bool& ok) {
    std::vector<std::uint8_t> out(4099);
    for (int job = 0; job < kJobs && ok; ++job) {
      const auto mark = static_cast<std::uint8_t>(tag + job);
      pool.for_ranges(out.size(), 1, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] = static_cast<std::uint8_t>(mark ^ i);
      });
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] != static_cast<std::uint8_t>(mark ^ i)) ok = false;
      }
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread a(dispatcher, std::uint8_t{0x11}, std::ref(ok_a));
  std::thread b(dispatcher, std::uint8_t{0x7c}, std::ref(ok_b));
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}
