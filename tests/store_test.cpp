// Persistence layer: CRC32C known answers and hardware-vs-portable kernel
// agreement, byte identity of the in-place record builder, WAL
// append/recovery round trips, a crash-point sweep
// truncating the log at every byte offset, corruption vs torn-tail handling,
// fault injection through the StoreIo seam (short writes, ENOSPC, fsync and
// rename failures), snapshot generations + GC, replay determinism
// (store/replica_store.hpp), and the registry series of the store and of
// state transfer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "store/crc32c.hpp"
#include "store/replica_store.hpp"
#include "store/state_sync.hpp"
#include "store/store_io.hpp"
#include "store/wal_record.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"

using namespace leopard;
using store::FsyncPolicy;
using store::RecoverMode;
using store::RecoveryResult;
using store::ReplicaStore;
using store::StoreOptions;

namespace {

std::string temp_dir() {
  char tmpl[] = "/tmp/leopard_store_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

crypto::Digest digest_of(std::uint8_t fill) {
  crypto::Sha256::DigestBytes b{};
  b.fill(fill);
  return crypto::Digest(b);
}

util::Bytes frame_of(std::uint8_t fill, std::size_t size) {
  return util::Bytes(size, fill);
}

util::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(out.good()) << path;
}

std::size_t count_snapshots(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& name : store::StoreIo::system().list_dir(dir)) {
    if (name.size() > 5 && name.rfind("snap-", 0) == 0 &&
        name.find(".snap") == name.size() - 5) {
      ++n;
    }
  }
  return n;
}

/// Appends `count` varied entries; returns the independently computed fold.
crypto::Digest append_entries(ReplicaStore& store, std::uint64_t count,
                              std::uint64_t seq_base, crypto::Digest from) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bd = digest_of(static_cast<std::uint8_t>(seq_base + i));
    const auto frame = frame_of(static_cast<std::uint8_t>(i), 40 + (i % 7) * 13);
    EXPECT_TRUE(store.append(seq_base + i, static_cast<std::uint32_t>(i % 3), bd,
                             /*requests=*/10 + i, frame, /*now=*/0));
    from = store::fold_exec_digest(from, bd);
  }
  return from;
}

/// StoreIo fault injector: delegates to the real filesystem, with knobs for
/// the failures real disks produce.
class FaultIo final : public store::StoreIo {
 public:
  std::int64_t append_byte_budget = -1;  // >= 0: ENOSPC once exhausted
  std::size_t short_append_next = 0;     // next append writes only this many
  bool fail_fsync = false;
  bool fail_rename = false;

  int open_rw(const std::string& path) override { return sys().open_rw(path); }

  std::int64_t append(int fd, std::span<const std::uint8_t> data) override {
    std::span<const std::uint8_t> slice = data;
    if (short_append_next > 0 && short_append_next < slice.size()) {
      slice = slice.first(short_append_next);
      short_append_next = 0;
    }
    if (append_byte_budget >= 0) {
      if (append_byte_budget == 0) {
        errno = ENOSPC;
        return -1;
      }
      if (static_cast<std::int64_t>(slice.size()) > append_byte_budget) {
        slice = slice.first(static_cast<std::size_t>(append_byte_budget));
      }
    }
    const auto n = sys().append(fd, slice);
    if (append_byte_budget >= 0 && n > 0) append_byte_budget -= n;
    return n;
  }

  bool pread_exact(int fd, std::uint64_t offset, std::span<std::uint8_t> buf) override {
    return sys().pread_exact(fd, offset, buf);
  }
  bool fsync(int fd) override {
    if (fail_fsync) {
      errno = EIO;
      return false;
    }
    return sys().fsync(fd);
  }
  bool ftruncate(int fd, std::uint64_t size) override { return sys().ftruncate(fd, size); }
  std::int64_t file_size(int fd) override { return sys().file_size(fd); }
  void close(int fd) override { sys().close(fd); }
  bool rename(const std::string& from, const std::string& to) override {
    if (fail_rename) {
      errno = EIO;
      return false;
    }
    return sys().rename(from, to);
  }
  bool unlink(const std::string& path) override { return sys().unlink(path); }
  bool mkdirs(const std::string& path) override { return sys().mkdirs(path); }
  bool fsync_dir(const std::string& path) override { return sys().fsync_dir(path); }
  std::vector<std::string> list_dir(const std::string& path) override {
    return sys().list_dir(path);
  }

 private:
  static StoreIo& sys() { return StoreIo::system(); }
};

StoreOptions options(const std::string& dir, store::StoreIo* io = nullptr) {
  StoreOptions opts;
  opts.dir = dir;
  opts.snapshot_every = 0;  // snapshots off unless a test opts in
  opts.io = io;
  return opts;
}

/// Registry::write_flat of `reg`, as key -> value text.
std::map<std::string, std::string> flat_series(obs::Registry& reg) {
  std::string text;
  reg.write_flat(text);
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

}  // namespace

TEST(Crc32c, KnownAnswerVectors) {
  // "123456789" is the standard CRC check input; the 32-byte vectors are
  // RFC 3720 (iSCSI) appendix B.4.
  const auto check = util::as_bytes("123456789");
  const util::Bytes zeros(32, 0x00);
  const util::Bytes ones(32, 0xFF);
  util::Bytes up(32);
  util::Bytes down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::vector<std::pair<std::span<const std::uint8_t>, std::uint32_t>> vectors = {
      {check, 0xE3069283u}, {zeros, 0x8A9136AAu}, {ones, 0x62A8AB43u},
      {up, 0x46DD794Eu},    {down, 0x113FDB5Cu},  {{}, 0x00000000u},
  };
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(store::crc32c(data), want) << "len=" << data.size();
    EXPECT_EQ(store::detail::crc32c_portable(data), want) << "len=" << data.size();
  }
}

TEST(Crc32c, DispatchedKernelMatchesPortableAtEveryLengthAndAlignment) {
  // On an SSE4.2 CPU crc32c() runs the hardware kernel: hold it against the
  // slice-by-8 oracle across its 8-byte main loop and byte tail, at every
  // start misalignment, from a zero and from a chained seed.
  util::Bytes buf(1100 + 8);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + misalign, len);
      ASSERT_EQ(store::crc32c(data), store::detail::crc32c_portable(data))
          << "misalign=" << misalign << " len=" << len;
      ASSERT_EQ(store::crc32c(data, 0xA5A5A5A5u),
                store::detail::crc32c_portable(data, 0xA5A5A5A5u))
          << "seeded, misalign=" << misalign << " len=" << len;
    }
  }
}

TEST(Crc32c, ChainedSeedEqualsOneShot) {
  util::Bytes buf(777);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const std::span<const std::uint8_t> all(buf);
  const auto whole = store::crc32c(all);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{333}, std::size_t{776}, std::size_t{777}}) {
    EXPECT_EQ(store::crc32c(all.subspan(cut), store::crc32c(all.first(cut))), whole)
        << "cut=" << cut;
    EXPECT_EQ(store::detail::crc32c_portable(
                  all.subspan(cut), store::detail::crc32c_portable(all.first(cut))),
              whole)
        << "portable, cut=" << cut;
  }
  // Three pieces chain the same way.
  const auto a = store::crc32c(all.first(100));
  const auto ab = store::crc32c(all.subspan(100, 250), a);
  EXPECT_EQ(store::crc32c(all.subspan(350), ab), whole);
}

TEST(WalRecord, InPlaceRecordIsByteIdenticalToFrameRecordOfEncodeEntry) {
  store::WalEntry entry;
  entry.index = 41;
  entry.seq = 17;
  entry.ordinal = 3;
  entry.requests = 100;
  entry.block_digest = digest_of(0x5A);
  entry.post_digest = digest_of(0xC3);
  // A stale, larger record in the reused buffer must not leak into the next.
  util::Bytes out(300000, 0xEE);
  for (const std::size_t size : {std::size_t{200000}, std::size_t{0}, std::size_t{1},
                                 std::size_t{4099}}) {
    entry.frame = frame_of(static_cast<std::uint8_t>(size), size);
    util::ByteWriter w;
    store::encode_entry(w, entry);
    const auto expected = store::frame_record(w.bytes());
    store::encode_entry_record(entry, entry.frame, out);
    EXPECT_EQ(out, expected) << "frame size " << size;
  }
}

TEST(WalRecord, OversizedRecordIsRefusedAndLeavesBufferUntouched) {
  store::WalEntry head;
  // The entry adds 96 bytes of fields ahead of the frame: one byte over.
  const util::Bytes frame(store::kMaxRecordPayloadBytes - 96 + 1, 0x01);
  util::Bytes out = {1, 2, 3};
  EXPECT_THROW(store::encode_entry_record(head, frame, out), util::ContractViolation);
  EXPECT_EQ(out, (util::Bytes{1, 2, 3}));
  // At exactly the limit it is accepted.
  const std::span<const std::uint8_t> at_limit(frame.data(), frame.size() - 1);
  store::encode_entry_record(head, at_limit, out);
  EXPECT_EQ(out.size(), store::kRecordHeaderBytes + store::kMaxRecordPayloadBytes);
}

TEST(Store, FreshStartAppendAndReopen) {
  const auto dir = temp_dir();
  crypto::Digest expect;
  {
    ReplicaStore store(options(dir));
    const auto rec = store.open(RecoverMode::kStrict);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.status, RecoveryResult::Status::kFreshStart);
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_EQ(store.tail_coord(), (std::pair<std::uint64_t, std::uint32_t>{0, 0}));

    expect = append_entries(store, 5, /*seq_base=*/1, crypto::Digest{});
    EXPECT_EQ(store.entries(), 5u);
    EXPECT_EQ(store.exec_digest(), expect);
    EXPECT_EQ(store.executed_requests(), 10u + 11 + 12 + 13 + 14);
    EXPECT_EQ(store.tail_coord(), (std::pair<std::uint64_t, std::uint32_t>{5, 1}));

    std::vector<store::WalEntry> out;
    ASSERT_TRUE(store.read_entries(0, 5, out));
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0].index, 0u);
    EXPECT_EQ(out[4].seq, 5u);
    EXPECT_EQ(out[2].frame, frame_of(2, 40 + 2 * 13));
    EXPECT_EQ(out[4].post_digest, expect);

    crypto::Digest d;
    ASSERT_TRUE(store.digest_at(0, d));
    EXPECT_EQ(d, crypto::Digest{});
    ASSERT_TRUE(store.digest_at(5, d));
    EXPECT_EQ(d, expect);
    ASSERT_TRUE(store.digest_at(3, d));
    EXPECT_EQ(d, out[2].post_digest);
    EXPECT_FALSE(store.digest_at(6, d));
    EXPECT_FALSE(store.read_entries(3, 2, out));
    EXPECT_FALSE(store.read_entries(0, 6, out));
  }
  {
    ReplicaStore store(options(dir));
    const auto rec = store.open(RecoverMode::kStrict);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.status, RecoveryResult::Status::kRecovered);
    EXPECT_EQ(rec.entries, 5u);
    EXPECT_EQ(rec.torn_bytes, 0u);
    EXPECT_EQ(store.exec_digest(), expect);
    EXPECT_EQ(store.executed_requests(), 10u + 11 + 12 + 13 + 14);
    EXPECT_EQ(store.tail_coord(), (std::pair<std::uint64_t, std::uint32_t>{5, 1}));
  }
}

TEST(Store, ReplayIsDeterministicAcrossDirectories) {
  const auto dir_a = temp_dir();
  const auto dir_b = temp_dir();
  crypto::Digest a;
  crypto::Digest b;
  for (const auto& [dir, out] : {std::pair{dir_a, &a}, std::pair{dir_b, &b}}) {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    append_entries(store, 7, 1, crypto::Digest{});
    *out = store.exec_digest();
  }
  EXPECT_EQ(a, b);
  // Reopening replays to the identical state.
  ReplicaStore store(options(dir_a));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
  EXPECT_EQ(store.exec_digest(), a);
}

TEST(Store, AppendWritesFrameRecordOfEncodeEntryAndReopens) {
  // The log append() writes is the concatenation of
  // frame_record(encode_entry(entry)) for the entries it was given: the
  // on-disk format is unchanged, so existing data directories recover.
  const auto dir = temp_dir();
  util::Bytes expected_log;
  crypto::Digest chain;
  const std::vector<std::size_t> sizes = {412000, 64, 0, 4096, 100000, 7};
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      store::WalEntry entry;
      entry.index = i;
      entry.seq = 10 + i;
      entry.ordinal = static_cast<std::uint32_t>(i % 2);
      entry.requests = 100 * i;
      entry.block_digest = digest_of(static_cast<std::uint8_t>(0x40 + i));
      entry.post_digest = store::fold_exec_digest(chain, entry.block_digest);
      entry.frame = frame_of(static_cast<std::uint8_t>(i), sizes[i]);
      ASSERT_TRUE(store.append(entry.seq, entry.ordinal, entry.block_digest, entry.requests,
                               entry.frame, /*now=*/0));
      util::ByteWriter w;
      store::encode_entry(w, entry);
      const auto record = store::frame_record(w.bytes());
      expected_log.insert(expected_log.end(), record.begin(), record.end());
      chain = entry.post_digest;
    }
    EXPECT_EQ(store.exec_digest(), chain);
  }
  EXPECT_EQ(read_file(dir + "/wal.log"), expected_log);

  ReplicaStore reopened(options(dir));
  const auto rec = reopened.open(RecoverMode::kStrict);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.entries, sizes.size());
  EXPECT_EQ(reopened.exec_digest(), chain);
  std::vector<store::WalEntry> out;
  ASSERT_TRUE(reopened.read_entries(0, sizes.size(), out));
  EXPECT_EQ(out[0].frame, frame_of(0, sizes[0]));
  EXPECT_EQ(out[5].frame, frame_of(5, sizes[5]));
}

TEST(Store, FrameAboveRecordLimitIsRefused) {
  const auto dir = temp_dir();
  ReplicaStore store(options(dir));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
  const auto chain = append_entries(store, 2, 1, crypto::Digest{});
  const auto bytes_before = store.wal_bytes();
  const util::Bytes huge(store::kMaxRecordPayloadBytes - 96 + 1, 0x33);
  EXPECT_THROW(store.append(9, 0, digest_of(0x99), 1, huge, /*now=*/0),
               util::ContractViolation);
  // Nothing was written and the state is unchanged; the store still appends.
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.wal_bytes(), bytes_before);
  EXPECT_EQ(store.exec_digest(), chain);
  EXPECT_TRUE(store.append(9, 0, digest_of(0x99), 1, frame_of(9, 16), /*now=*/0));
  EXPECT_EQ(store.exec_digest(), store::fold_exec_digest(chain, digest_of(0x99)));
}

TEST(Store, CrashPointSweepAtEveryByteOffset) {
  // Build a reference log, remembering the state after every record.
  const auto dir = temp_dir();
  std::vector<std::uint64_t> boundary{0};  // wal size after k entries
  std::vector<crypto::Digest> digest_after{crypto::Digest{}};
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    crypto::Digest d;
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto bd = digest_of(static_cast<std::uint8_t>(0x40 + i));
      ASSERT_TRUE(store.append(i + 1, 0, bd, 5, frame_of(0x7F, 30 + i * 11), 0));
      d = store::fold_exec_digest(d, bd);
      boundary.push_back(store.wal_bytes());
      digest_after.push_back(d);
    }
  }
  const auto wal = read_file(dir + "/wal.log");
  ASSERT_EQ(wal.size(), boundary.back());

  // A crash can tear the tail at ANY byte. Every truncation must recover the
  // longest whole-record prefix — silently, in strict mode (a torn tail is
  // not corruption).
  const auto sweep_dir = temp_dir();
  for (std::size_t len = 0; len <= wal.size(); ++len) {
    write_file(sweep_dir + "/wal.log",
               std::span<const std::uint8_t>(wal).first(len));
    ReplicaStore store(options(sweep_dir));
    const auto rec = store.open(RecoverMode::kStrict);
    ASSERT_TRUE(rec.ok()) << "crash point " << len << ": " << rec.detail;

    std::size_t expect_entries = 0;
    while (expect_entries + 1 < boundary.size() && boundary[expect_entries + 1] <= len) {
      ++expect_entries;
    }
    EXPECT_EQ(store.entries(), expect_entries) << "crash point " << len;
    EXPECT_EQ(store.exec_digest(), digest_after[expect_entries]) << "crash point " << len;
    EXPECT_EQ(store.wal_bytes(), boundary[expect_entries]) << "crash point " << len;
    EXPECT_EQ(rec.torn_bytes, len - boundary[expect_entries]) << "crash point " << len;
    // The torn suffix must actually be gone from disk.
    EXPECT_EQ(read_file(sweep_dir + "/wal.log").size(), boundary[expect_entries]);
  }
}

TEST(Store, BitFlipIsCorruptionNotATornTail) {
  const auto dir = temp_dir();
  std::vector<std::uint64_t> boundary{0};
  crypto::Digest after_two;
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    crypto::Digest d;
    for (std::uint64_t i = 0; i < 5; ++i) {
      const auto bd = digest_of(static_cast<std::uint8_t>(i));
      ASSERT_TRUE(store.append(i + 1, 0, bd, 1, frame_of(1, 64), 0));
      d = store::fold_exec_digest(d, bd);
      boundary.push_back(store.wal_bytes());
      if (i == 1) after_two = d;
    }
  }
  // Flip one payload bit inside record 2 (a COMPLETE record: corruption).
  auto wal = read_file(dir + "/wal.log");
  wal[boundary[2] + store::kRecordHeaderBytes + 10] ^= 0x01;
  write_file(dir + "/wal.log", wal);

  {
    ReplicaStore store(options(dir));
    const auto rec = store.open(RecoverMode::kStrict);
    EXPECT_FALSE(rec.ok());
    EXPECT_EQ(rec.status, RecoveryResult::Status::kCorrupt);
    EXPECT_NE(rec.detail.find("--recover=truncate"), std::string::npos) << rec.detail;
    EXPECT_FALSE(store.is_open());
  }
  {
    ReplicaStore store(options(dir));
    const auto rec = store.open(RecoverMode::kTruncate);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.exec_digest(), after_two);
    EXPECT_GT(rec.corrupt_dropped, 0u);
    // The repaired store accepts new appends and reopens cleanly.
    ASSERT_TRUE(store.append(10, 0, digest_of(0xEE), 1, frame_of(2, 16), 0));
  }
  ReplicaStore store(options(dir));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
  EXPECT_EQ(store.entries(), 3u);
}

TEST(Store, ChainMismatchWithValidCrcIsCorruption) {
  const auto dir = temp_dir();
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    append_entries(store, 3, 1, crypto::Digest{});
  }
  // Craft a record whose CRC is fine but whose post_digest does not extend
  // the chain — a forged or cross-wired entry, not random bit rot.
  store::WalEntry evil;
  evil.index = 3;
  evil.seq = 9;
  evil.ordinal = 0;
  evil.requests = 1;
  evil.block_digest = digest_of(0xAA);
  evil.post_digest = digest_of(0xBB);  // not fold(chain, block_digest)
  evil.frame = frame_of(3, 32);
  util::ByteWriter w;
  store::encode_entry(w, evil);
  const auto record = store::frame_record(w.bytes());
  auto wal = read_file(dir + "/wal.log");
  wal.insert(wal.end(), record.begin(), record.end());
  write_file(dir + "/wal.log", wal);

  ReplicaStore strict(options(dir));
  const auto rec = strict.open(RecoverMode::kStrict);
  EXPECT_EQ(rec.status, RecoveryResult::Status::kCorrupt);
  EXPECT_NE(rec.detail.find("chain mismatch"), std::string::npos) << rec.detail;

  ReplicaStore repair(options(dir));
  ASSERT_TRUE(repair.open(RecoverMode::kTruncate).ok());
  EXPECT_EQ(repair.entries(), 3u);
}

TEST(Store, IndexDiscontinuityIsCorruption) {
  const auto dir = temp_dir();
  crypto::Digest chain;
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    chain = append_entries(store, 2, 1, crypto::Digest{});
  }
  store::WalEntry skip;
  skip.index = 5;  // should be 2
  skip.seq = 3;
  skip.block_digest = digest_of(0x11);
  skip.post_digest = store::fold_exec_digest(chain, skip.block_digest);
  skip.frame = frame_of(4, 8);
  util::ByteWriter w;
  store::encode_entry(w, skip);
  const auto record = store::frame_record(w.bytes());
  auto wal = read_file(dir + "/wal.log");
  wal.insert(wal.end(), record.begin(), record.end());
  write_file(dir + "/wal.log", wal);

  ReplicaStore store(options(dir));
  const auto rec = store.open(RecoverMode::kStrict);
  EXPECT_EQ(rec.status, RecoveryResult::Status::kCorrupt);
  EXPECT_NE(rec.detail.find("index discontinuity"), std::string::npos) << rec.detail;
}

TEST(Store, EnospcRollsBackAndRecovers) {
  const auto dir = temp_dir();
  FaultIo io;
  ReplicaStore store(options(dir, &io));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
  const auto chain = append_entries(store, 2, 1, crypto::Digest{});
  const auto size_before = store.wal_bytes();

  // The disk fills mid-record: a short write followed by ENOSPC.
  io.append_byte_budget = 10;
  std::string err;
  EXPECT_FALSE(store.append(7, 0, digest_of(0x33), 1, frame_of(5, 128), 0, &err));
  EXPECT_NE(err.find("append"), std::string::npos) << err;
  EXPECT_EQ(store.entries(), 2u) << "failed append must not change state";
  EXPECT_EQ(store.exec_digest(), chain);
  EXPECT_EQ(store.wal_bytes(), size_before);
  EXPECT_EQ(store.stats().append_errors, 1u);
  EXPECT_EQ(read_file(dir + "/wal.log").size(), size_before) << "file rolled back";

  // Space returns: the next append lands with a contiguous index.
  io.append_byte_budget = -1;
  ASSERT_TRUE(store.append(7, 0, digest_of(0x33), 1, frame_of(5, 128), 0));
  std::vector<store::WalEntry> out;
  ASSERT_TRUE(store.read_entries(2, 3, out));
  EXPECT_EQ(out[0].index, 2u);

  ReplicaStore reopened(options(dir));
  ASSERT_TRUE(reopened.open(RecoverMode::kStrict).ok());
  EXPECT_EQ(reopened.entries(), 3u);
  EXPECT_EQ(reopened.exec_digest(), store.exec_digest());
}

TEST(Store, ShortWritesAreRetriedToCompletion) {
  const auto dir = temp_dir();
  FaultIo io;
  ReplicaStore store(options(dir, &io));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());

  io.short_append_next = 5;  // first write() returns 5 bytes; store must loop
  ASSERT_TRUE(store.append(1, 0, digest_of(0x44), 1, frame_of(6, 100), 0));
  EXPECT_EQ(store.entries(), 1u);

  ReplicaStore reopened(options(dir));
  const auto rec = reopened.open(RecoverMode::kStrict);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(reopened.entries(), 1u);
  EXPECT_EQ(rec.torn_bytes, 0u);
}

TEST(Store, FsyncPolicyCountingAndFailure) {
  {
    const auto dir = temp_dir();
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    append_entries(store, 3, 1, crypto::Digest{});
    EXPECT_EQ(store.stats().fsyncs, 3u) << "kAlways syncs every append";
  }
  {
    const auto dir = temp_dir();
    auto opts = options(dir);
    opts.fsync_policy = FsyncPolicy::kNever;
    ReplicaStore store(opts);
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    append_entries(store, 3, 1, crypto::Digest{});
    EXPECT_EQ(store.stats().fsyncs, 0u);
  }
  {
    const auto dir = temp_dir();
    auto opts = options(dir);
    opts.fsync_policy = FsyncPolicy::kInterval;
    opts.fsync_interval = 50 * sim::kMillisecond;
    ReplicaStore store(opts);
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    const auto bd = digest_of(1);
    ASSERT_TRUE(store.append(1, 0, bd, 1, frame_of(1, 8), 10 * sim::kMillisecond));
    ASSERT_TRUE(store.append(2, 0, bd, 1, frame_of(1, 8), 20 * sim::kMillisecond));
    ASSERT_TRUE(store.append(3, 0, bd, 1, frame_of(1, 8), 70 * sim::kMillisecond));
    EXPECT_EQ(store.stats().fsyncs, 1u) << "one interval elapsed";
    EXPECT_TRUE(store.flush()) << "interval sync cleared dirty: no-op";
    EXPECT_EQ(store.stats().fsyncs, 1u);
    ASSERT_TRUE(store.append(4, 0, bd, 1, frame_of(1, 8), 80 * sim::kMillisecond));
    EXPECT_EQ(store.stats().fsyncs, 1u) << "80ms - 70ms is inside the interval";
    EXPECT_TRUE(store.flush()) << "unsynced append outstanding: must sync";
    EXPECT_EQ(store.stats().fsyncs, 2u);
  }
  {
    const auto dir = temp_dir();
    FaultIo io;
    ReplicaStore store(options(dir, &io));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    io.fail_fsync = true;
    std::string err;
    EXPECT_FALSE(store.append(1, 0, digest_of(2), 1, frame_of(1, 8), 0, &err));
    EXPECT_NE(err.find("fsync"), std::string::npos) << err;
    EXPECT_EQ(store.entries(), 1u) << "the entry itself is written, just not durable";
    EXPECT_EQ(store.stats().fsync_errors, 1u);
  }
}

TEST(Store, RegisteredSeriesReadStatsAndRecoveryAtScrapeTime) {
  const auto dir = temp_dir();
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    append_entries(store, 5, 1, crypto::Digest{});
  }
  ReplicaStore store(options(dir));
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
  obs::Registry reg;
  store.register_observability(reg);
  auto kv = flat_series(reg);
  EXPECT_EQ(kv.at("leopard_store_recovered_entries"), "5");
  EXPECT_EQ(kv.at("leopard_store_entries"), "5");
  EXPECT_EQ(kv.at("leopard_store_appends_total"), "0");
  EXPECT_EQ(kv.at("leopard_store_torn_bytes"), "0");

  append_entries(store, 2, 6, store.exec_digest());
  kv = flat_series(reg);
  EXPECT_EQ(kv.at("leopard_store_entries"), "7");
  EXPECT_EQ(kv.at("leopard_store_appends_total"), "2");
  EXPECT_EQ(kv.at("leopard_store_fsyncs_total"), "2") << "kAlways syncs every append";
  EXPECT_EQ(kv.at("leopard_store_append_errors_total"), "0");
  EXPECT_EQ(kv.at("leopard_store_recovered_entries"), "5");
}

TEST(Store, SnapshotGenerationsGcAndRecovery) {
  const auto dir = temp_dir();
  crypto::Digest expect;
  {
    auto opts = options(dir);
    opts.snapshot_every = 4;
    opts.keep_snapshots = 2;
    ReplicaStore store(opts);
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    expect = append_entries(store, 13, 1, crypto::Digest{});
    EXPECT_EQ(store.stats().snapshots_written, 3u);  // at 4, 8, 12
    EXPECT_EQ(count_snapshots(dir), 2u) << "GC keeps the newest two";
  }
  auto opts = options(dir);
  opts.snapshot_every = 4;
  ReplicaStore store(opts);
  const auto rec = store.open(RecoverMode::kStrict);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.entries, 13u);
  EXPECT_EQ(rec.snapshot_index, 12u) << "replay resumed from the newest snapshot";
  EXPECT_EQ(store.exec_digest(), expect);
  // State transfer still reaches below the snapshot: full records survive.
  std::vector<store::WalEntry> out;
  ASSERT_TRUE(store.read_entries(0, 13, out));
  EXPECT_EQ(out.front().index, 0u);
}

TEST(Store, LyingSnapshotFallsBackToFullReplay) {
  const auto dir = temp_dir();
  crypto::Digest expect;
  std::string snap_name;
  {
    auto opts = options(dir);
    opts.snapshot_every = 4;
    ReplicaStore store(opts);
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    expect = append_entries(store, 6, 1, crypto::Digest{});
  }
  for (const auto& name : store::StoreIo::system().list_dir(dir)) {
    if (name.find(".snap") != std::string::npos) snap_name = name;
  }
  ASSERT_FALSE(snap_name.empty());

  // Tamper 1: random damage — the snapshot stops parsing and is skipped.
  const auto snap_path = dir + "/" + snap_name;
  const auto original = read_file(snap_path);
  auto bent = original;
  bent[bent.size() / 2] ^= 0xFF;
  write_file(snap_path, bent);
  {
    ReplicaStore store(options(dir));
    const auto rec = store.open(RecoverMode::kStrict);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.snapshot_index, 0u) << "unreadable snapshot must be skipped";
    EXPECT_EQ(store.exec_digest(), expect);
  }

  // Tamper 2: a well-formed snapshot that LIES about the digest. The chain
  // check on the first suffix record exposes it; open() retries from genesis
  // and recovers the true state.
  {
    const auto payload = store::scan_record(original, 0);
    ASSERT_EQ(payload.status, store::RecordScan::Status::kRecord);
    util::Bytes lied(payload.payload.begin(), payload.payload.end());
    lied[lied.size() - 1] ^= 0xFF;  // last exec_digest byte
    write_file(snap_path, store::frame_record(lied));
  }
  ReplicaStore store(options(dir));
  const auto rec = store.open(RecoverMode::kStrict);
  ASSERT_TRUE(rec.ok()) << rec.detail;
  EXPECT_EQ(rec.snapshot_index, 0u) << "lying snapshot abandoned, full replay";
  EXPECT_EQ(store.entries(), 6u);
  EXPECT_EQ(store.exec_digest(), expect);
}

TEST(Store, StraySnapTmpAndForeignFilesAreIgnored) {
  const auto dir = temp_dir();
  crypto::Digest expect;
  {
    ReplicaStore store(options(dir));
    ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());
    expect = append_entries(store, 3, 1, crypto::Digest{});
  }
  // A crash between snapshot write and rename leaves snap.tmp behind; other
  // stray files must not confuse recovery either.
  write_file(dir + "/snap.tmp", frame_of(0xDD, 100));
  write_file(dir + "/snap-1.snap", frame_of(0xDD, 30));  // wrong name shape
  write_file(dir + "/notes.txt", frame_of(0x20, 10));

  ReplicaStore store(options(dir));
  const auto rec = store.open(RecoverMode::kStrict);
  ASSERT_TRUE(rec.ok()) << rec.detail;
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_EQ(store.exec_digest(), expect);
}

TEST(Store, SnapshotRenameFailureLeavesStoreHealthy) {
  const auto dir = temp_dir();
  FaultIo io;
  auto opts = options(dir, &io);
  opts.snapshot_every = 2;
  ReplicaStore store(opts);
  ASSERT_TRUE(store.open(RecoverMode::kStrict).ok());

  io.fail_rename = true;
  const auto expect = append_entries(store, 4, 1, crypto::Digest{});
  EXPECT_EQ(store.stats().snapshots_written, 0u);
  EXPECT_EQ(store.stats().snapshot_errors, 2u);
  EXPECT_EQ(count_snapshots(dir), 0u);
  EXPECT_EQ(store.exec_digest(), expect) << "snapshot failure never corrupts state";

  ReplicaStore reopened(options(dir));
  ASSERT_TRUE(reopened.open(RecoverMode::kStrict).ok());
  EXPECT_EQ(reopened.entries(), 4u);
  EXPECT_EQ(reopened.exec_digest(), expect);
}

// ---------------------------------------------------------------------------
// StateSync under a byzantine serving peer, driven message by message.
// ---------------------------------------------------------------------------

namespace {

/// One node's store + StateSync with outbound payloads captured for manual
/// delivery (timers are no-ops; the test drives every step by hand).
struct SyncNode {
  std::string dir = temp_dir();
  std::unique_ptr<ReplicaStore> store;
  std::unique_ptr<store::StateSync> sync;
  std::vector<std::pair<sim::NodeId, sim::PayloadPtr>> out;

  SyncNode(sim::NodeId id, std::uint32_t n, std::uint32_t f) {
    store = std::make_unique<ReplicaStore>(options(dir));
    EXPECT_TRUE(store->open(RecoverMode::kStrict).ok());
    sync = std::make_unique<store::StateSync>(id, n, f, store.get(),
                                              store::StateSyncOptions{});
    sync->set_send([this](sim::NodeId to, sim::PayloadPtr p) {
      out.emplace_back(to, std::move(p));
    });
    sync->set_timer_hooks([](std::uint64_t, sim::SimTime) {}, [](std::uint64_t) {});
  }

  std::vector<std::pair<sim::NodeId, sim::PayloadPtr>> drain() {
    return std::exchange(out, {});
  }
};

/// Drives node 0 (empty store) through probe -> offer -> pull against honest
/// servers 1 and 2, injecting `attack(honest_chunk_template)` payloads from
/// byzantine peer 3 BEFORE any honest chunk is delivered. Returns the client.
std::unique_ptr<SyncNode> run_sync_under_attack(
    const std::function<std::vector<sim::PayloadPtr>(const proto::StateChunkMsg&)>&
        attack,
    crypto::Digest* expect_out) {
  constexpr std::uint32_t n = 4;
  constexpr std::uint32_t f = 1;
  auto client = std::make_unique<SyncNode>(0, n, f);
  std::vector<std::unique_ptr<SyncNode>> servers;
  for (sim::NodeId id = 1; id <= 3; ++id) {
    servers.push_back(std::make_unique<SyncNode>(id, n, f));
    *expect_out = append_entries(*servers.back()->store, 6, 1, crypto::Digest{});
  }
  auto* s1 = servers[0].get();
  auto* s2 = servers[1].get();

  client->sync->start(0);
  auto probes = client->drain();
  EXPECT_EQ(probes.size(), 3u);
  // Peer 3 never answers honestly; servers 1 and 2 offer, which is enough
  // (n-1-f = 2) for the client to decide and broadcast a pull.
  for (auto& [to, p] : probes) {
    if (to == 1) s1->sync->on_payload(0, p, 0);
    if (to == 2) s2->sync->on_payload(0, p, 0);
  }
  for (auto& [to, p] : s1->drain()) client->sync->on_payload(1, p, 0);
  for (auto& [to, p] : s2->drain()) client->sync->on_payload(2, p, 0);
  auto pulls = client->drain();
  EXPECT_EQ(pulls.size(), 3u) << "pull must broadcast to every peer";
  for (auto& [to, p] : pulls) {
    if (to == 1) s1->sync->on_payload(0, p, 0);
    if (to == 2) s2->sync->on_payload(0, p, 0);
  }
  auto c1 = s1->drain();
  auto c2 = s2->drain();
  EXPECT_EQ(c1.size(), 1u);
  EXPECT_EQ(c2.size(), 1u);
  const auto* honest =
      dynamic_cast<const proto::StateChunkMsg*>(c1.front().second.get());
  EXPECT_NE(honest, nullptr);

  // The byzantine peer races its forgeries in before any honest answer.
  for (auto& forged : attack(*honest)) {
    client->sync->on_payload(3, forged, 0);
  }
  EXPECT_FALSE(client->sync->live());

  // Honest chunks land last; the round must still complete, after which the
  // client re-probes and the matching offers take it live.
  client->sync->on_payload(1, c1.front().second, 0);
  client->sync->on_payload(2, c2.front().second, 0);
  auto reprobes = client->drain();
  for (auto& [to, p] : reprobes) {
    if (to == 1) s1->sync->on_payload(0, p, 0);
    if (to == 2) s2->sync->on_payload(0, p, 0);
  }
  for (auto& [to, p] : s1->drain()) client->sync->on_payload(1, p, 0);
  for (auto& [to, p] : s2->drain()) client->sync->on_payload(2, p, 0);
  return client;
}

}  // namespace

TEST(StateSyncByzantine, SpoofedShardIndicesCannotSquatHonestSlots) {
  // The attack REVIEW.md flagged: a byzantine peer answers fastest and squats
  // the honest servers' shard indices with garbage under the honest group
  // key. With first-write-wins and no sender check the honest shards arriving
  // later would be discarded, every decodable subset would contain garbage,
  // and the pull would stall until the round timer forever. Chunks claiming
  // an index other than the sender's id must be rejected outright.
  crypto::Digest expect;
  auto client = run_sync_under_attack(
      [](const proto::StateChunkMsg& honest) {
        std::vector<sim::PayloadPtr> forged;
        for (std::uint32_t idx = 1; idx <= 2; ++idx) {
          auto m = std::make_shared<proto::StateChunkMsg>(honest);
          m->chunk_index = idx;  // someone else's shard slot
          for (auto& b : m->chunk) b ^= 0xA5;
          forged.push_back(std::move(m));
        }
        return forged;
      },
      &expect);

  EXPECT_TRUE(client->sync->live());
  EXPECT_EQ(client->sync->executed_blocks(), 6u);
  EXPECT_EQ(client->sync->exec_digest(), expect);
  EXPECT_EQ(client->store->entries(), 6u);
  const auto& st = client->sync->stats();
  EXPECT_EQ(st.rounds_completed, 1u);
  EXPECT_EQ(st.entries_transferred, 6u);
  // The forgeries never enter a group, so the honest pair decodes first try.
  EXPECT_EQ(st.verify_failures, 0u);
}

TEST(StateSyncByzantine, GarbledOwnShardWastesOnlyItsOwnSlot) {
  // Sim-level twin of the wire `garbage-shares` mode: the byzantine peer
  // serves a garbled shard under its OWN index and the honest group key. It
  // occupies one slot, costs exactly one failed decode attempt, and the
  // untainted honest subset still completes the round.
  crypto::Digest expect;
  auto client = run_sync_under_attack(
      [](const proto::StateChunkMsg& honest) {
        auto m = std::make_shared<proto::StateChunkMsg>(honest);
        m->chunk_index = 3;
        for (auto& b : m->chunk) b ^= 0xA5;
        return std::vector<sim::PayloadPtr>{std::move(m)};
      },
      &expect);

  EXPECT_TRUE(client->sync->live());
  EXPECT_EQ(client->sync->executed_blocks(), 6u);
  EXPECT_EQ(client->sync->exec_digest(), expect);
  const auto& st = client->sync->stats();
  EXPECT_EQ(st.rounds_completed, 1u);
  // One tainted subset ({garbage, first honest shard}) fails before the
  // honest pair verifies; the incremental search never retries it.
  EXPECT_EQ(st.verify_failures, 1u);
}

TEST(StateSyncByzantine, ForgedGroupFloodIsBoundedAndHarmless) {
  // A byzantine peer minting a distinct (until, digest) group per message is
  // capped per sender, and none of it blocks the honest group from forming.
  crypto::Digest expect;
  auto client = run_sync_under_attack(
      [](const proto::StateChunkMsg& honest) {
        std::vector<sim::PayloadPtr> forged;
        for (std::uint8_t i = 0; i < 16; ++i) {
          auto m = std::make_shared<proto::StateChunkMsg>(honest);
          m->chunk_index = 3;
          m->exec_digest = digest_of(i);  // 16 distinct forged group keys
          for (auto& b : m->chunk) b ^= 0xA5;
          forged.push_back(std::move(m));
        }
        return forged;
      },
      &expect);

  EXPECT_TRUE(client->sync->live());
  EXPECT_EQ(client->sync->executed_blocks(), 6u);
  EXPECT_EQ(client->sync->exec_digest(), expect);
  // Single-chunk forged groups never reach f+1 shards, so no decode was even
  // attempted against them.
  EXPECT_EQ(client->sync->stats().verify_failures, 0u);
}

TEST(StateSync, RegisteredSeriesReadStatsAtScrapeTime) {
  crypto::Digest expect;
  auto client = run_sync_under_attack(
      [](const proto::StateChunkMsg&) { return std::vector<sim::PayloadPtr>{}; }, &expect);
  ASSERT_TRUE(client->sync->live());
  obs::Registry reg;
  client->sync->register_observability(reg);
  const auto kv = flat_series(reg);
  const auto& st = client->sync->stats();
  EXPECT_EQ(kv.at("leopard_sync_entries_total"), "6");
  EXPECT_EQ(kv.at("leopard_sync_rounds_total"), std::to_string(st.rounds_completed));
  EXPECT_EQ(kv.at("leopard_sync_probes_sent_total"), std::to_string(st.probes_sent));
  EXPECT_EQ(kv.at("leopard_sync_chunks_received_total"), std::to_string(st.chunks_received));
  EXPECT_EQ(kv.at("leopard_sync_bytes_total"), std::to_string(st.bytes_transferred));
  EXPECT_EQ(kv.at("leopard_sync_verify_failures_total"), "0");
  EXPECT_GT(st.probes_sent, 0u);
  EXPECT_GT(st.bytes_transferred, 0u);
}
