// ReplicaStore: durable record of this replica's committed Execute stream.
//
// Layout of a data directory:
//
//   wal.log                      append-only log of WalEntry records
//   snap-<index>-<digest16>.snap one-record snapshot files, newest wins
//   snap.tmp                     in-flight snapshot (ignored by recovery)
//
// The WAL is the source of truth; snapshots only summarize a prefix so
// recovery replays the suffix instead of the whole log. Each snapshot is
// keyed by the exec_digest it certifies (in its name and its payload) and is
// written write-temp + atomic-rename, so a crash at any instant leaves either
// the old generation or the new one, never a half-file that parses.
//
// Recovery semantics (open):
//   - a record extending past EOF is a torn append: truncated silently in
//     both modes (the entry was never acknowledged as durable);
//   - a complete record failing CRC, entry decode, index continuity, or the
//     exec_digest chain is CORRUPTION: open fails under RecoverMode::kStrict
//     and truncates at the damaged record under kTruncate;
//   - snapshots are redundancy, not truth: an unreadable/invalid snapshot is
//     skipped (older generation, then full replay), never an error.
//
// Group commit: FsyncPolicy::kAlways syncs every append (durable before the
// call returns); kInterval batches syncs on a clock (bounded data loss,
// much higher append rate); kNever leaves flushing to the kernel.
//
// Single-threaded, like the SocketEnv loop that drives it. All I/O goes
// through the injectable StoreIo seam.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "sim/time.hpp"
#include "store/store_io.hpp"
#include "store/wal_record.hpp"

namespace leopard::store {

enum class FsyncPolicy : std::uint8_t { kAlways, kInterval, kNever };

enum class RecoverMode : std::uint8_t { kStrict, kTruncate };

struct StoreOptions {
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  sim::SimTime fsync_interval = 50 * sim::kMillisecond;  // kInterval batching
  /// Entries between snapshots; 0 disables snapshotting.
  std::uint64_t snapshot_every = 4096;
  std::size_t keep_snapshots = 2;
  StoreIo* io = nullptr;  // nullptr = StoreIo::system()
};

struct RecoveryResult {
  enum class Status : std::uint8_t {
    kFreshStart,  // no WAL (or empty): nothing to recover
    kRecovered,   // state restored (possibly after torn-tail/kTruncate repair)
    kCorrupt,     // kStrict refused a damaged record; store is NOT open
    kIoError,     // directory/file unusable; store is NOT open
  };
  Status status = Status::kFreshStart;
  std::string detail;
  std::uint64_t entries = 0;
  std::uint64_t executed_requests = 0;
  crypto::Digest exec_digest;
  std::uint64_t snapshot_index = 0;   // entries the loaded snapshot covered
  std::uint64_t torn_bytes = 0;       // auto-truncated torn tail
  std::uint64_t corrupt_dropped = 0;  // bytes dropped by kTruncate repair

  [[nodiscard]] bool ok() const {
    return status == Status::kFreshStart || status == Status::kRecovered;
  }
};

class ReplicaStore {
 public:
  explicit ReplicaStore(StoreOptions opts);
  ~ReplicaStore();

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Opens the data directory and recovers state. Must be called (and return
  /// ok()) before any other member. Idempotent-hostile: call once.
  RecoveryResult open(RecoverMode mode);

  /// Appends the next committed entry. The store assigns the index and folds
  /// the digest chain itself. On failure the file is rolled back to the last
  /// durable boundary and in-memory state is unchanged.
  bool append(std::uint64_t seq, std::uint32_t ordinal,
              const crypto::Digest& block_digest, std::uint64_t requests,
              std::span<const std::uint8_t> frame, sim::SimTime now,
              std::string* err = nullptr);

  /// Forces an fsync of the WAL (e.g. on shutdown) if anything is unsynced.
  bool flush(std::string* err = nullptr);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t entries() const { return entry_spans_.size(); }
  [[nodiscard]] const crypto::Digest& exec_digest() const { return exec_digest_; }
  [[nodiscard]] std::uint64_t executed_requests() const { return executed_requests_; }
  /// (seq, ordinal) of the last entry; (0, 0) when empty.
  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> tail_coord() const {
    return {tail_seq_, tail_ordinal_};
  }
  [[nodiscard]] std::uint64_t wal_bytes() const { return wal_size_; }

  /// Reads and decodes entries [from, to); false on range/IO/validation
  /// error. Serves state transfer, so every record re-verifies its CRC.
  bool read_entries(std::uint64_t from, std::uint64_t to,
                    std::vector<WalEntry>& out) const;

  /// exec_digest after the first `index` entries (0 = the zero digest,
  /// entries() = exec_digest()); any index within the log resolves because
  /// every record stores its post_digest. False on range or read error.
  bool digest_at(std::uint64_t index, crypto::Digest& out) const;

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t append_errors = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t fsync_errors = 0;
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_errors = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Snapshot {
    std::uint64_t entries = 0;
    std::uint64_t wal_offset = 0;
    std::uint64_t executed_requests = 0;
    std::uint64_t tail_seq = 0;
    std::uint32_t tail_ordinal = 0;
    crypto::Digest exec_digest;
    std::string filename;
  };
  struct EntrySpan {
    std::uint64_t offset = 0;  // record start (length header) in wal.log
    std::uint32_t payload_len = 0;
  };

  [[nodiscard]] StoreIo& io() const { return io_ != nullptr ? *io_ : StoreIo::system(); }
  [[nodiscard]] std::string wal_path() const { return opts_.dir + "/wal.log"; }

  /// Best valid snapshot whose wal_offset fits the file, or nullopt.
  std::optional<Snapshot> load_best_snapshot(std::uint64_t wal_size);
  [[nodiscard]] std::optional<Snapshot> read_snapshot(const std::string& name);
  /// Replays `wal` (the full file) on top of `snap` (or from genesis).
  RecoveryResult replay(std::span<const std::uint8_t> wal,
                        const std::optional<Snapshot>& snap, RecoverMode mode);
  bool do_fsync();
  void maybe_snapshot();
  void gc_snapshots();

  StoreOptions opts_;
  StoreIo* io_ = nullptr;
  int fd_ = -1;
  std::uint64_t wal_size_ = 0;
  std::vector<EntrySpan> entry_spans_;
  crypto::Digest exec_digest_;
  std::uint64_t executed_requests_ = 0;
  std::uint64_t tail_seq_ = 0;
  std::uint32_t tail_ordinal_ = 0;
  bool dirty_ = false;  // unsynced appends outstanding
  util::Bytes record_;  // append()'s record buffer, reused: keeps its capacity
  sim::SimTime last_fsync_ = 0;
  Stats stats_;
};

}  // namespace leopard::store
