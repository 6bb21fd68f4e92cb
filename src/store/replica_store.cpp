#include "store/replica_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace leopard::store {

namespace {

// Process-wide durability latency histograms (all stores in a process share
// one WAL discipline; the per-thread shards keep multi-store recording
// uncontended anyway).
obs::Histogram wal_append_hist() {
  static const obs::Histogram h = obs::Registry::global().histogram(
      "leopard_wal_append_ns", "WAL entry encode+write latency in nanoseconds");
  return h;
}

obs::Histogram wal_fsync_hist() {
  static const obs::Histogram h = obs::Registry::global().histogram(
      "leopard_wal_fsync_ns", "WAL fsync latency in nanoseconds");
  return h;
}

constexpr std::uint32_t kSnapshotMagic = 0x504E534Cu;  // "LSNP"
constexpr std::uint8_t kSnapshotVersion = 1;

std::string errno_str() { return std::strerror(errno); }

void set_err(std::string* err, std::string what) {
  if (err != nullptr) *err = std::move(what);
}

/// snap-<20-digit index>-<16 hex digest chars>.snap
std::string snapshot_name(std::uint64_t entries, const crypto::Digest& digest) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snap-%020llu-%016llx.snap",
                static_cast<unsigned long long>(entries),
                static_cast<unsigned long long>(digest.prefix64()));
  return buf;
}

bool parse_snapshot_index(const std::string& name, std::uint64_t& index) {
  // Lexicographic order of the zero-padded index equals numeric order, but
  // parse explicitly so a stray file cannot confuse the GC.
  if (name.size() != 4 + 1 + 20 + 1 + 16 + 5) return false;
  if (name.rfind("snap-", 0) != 0 || name.find(".snap") != name.size() - 5) return false;
  index = 0;
  for (std::size_t i = 5; i < 25; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

crypto::Digest read_digest(util::ByteReader& r) {
  crypto::Sha256::DigestBytes bytes{};
  const auto view = r.raw(crypto::Digest::kSize);
  std::memcpy(bytes.data(), view.data(), bytes.size());
  return crypto::Digest(bytes);
}

}  // namespace

ReplicaStore::ReplicaStore(StoreOptions opts) : opts_(std::move(opts)), io_(opts_.io) {}

ReplicaStore::~ReplicaStore() {
  if (fd_ >= 0) {
    if (dirty_ && opts_.fsync_policy != FsyncPolicy::kNever) do_fsync();
    io().close(fd_);
  }
}

RecoveryResult ReplicaStore::open(RecoverMode mode) {
  util::expects(fd_ < 0, "ReplicaStore::open called twice");
  RecoveryResult res;
  if (!io().mkdirs(opts_.dir)) {
    res.status = RecoveryResult::Status::kIoError;
    res.detail = "mkdir " + opts_.dir + ": " + errno_str();
    return res;
  }
  const int fd = io().open_rw(wal_path());
  if (fd < 0) {
    res.status = RecoveryResult::Status::kIoError;
    res.detail = "open " + wal_path() + ": " + errno_str();
    return res;
  }
  const auto size = io().file_size(fd);
  if (size < 0) {
    io().close(fd);
    res.status = RecoveryResult::Status::kIoError;
    res.detail = "stat " + wal_path() + ": " + errno_str();
    return res;
  }

  util::Bytes wal(static_cast<std::size_t>(size));
  if (size > 0 && !io().pread_exact(fd, 0, wal)) {
    io().close(fd);
    res.status = RecoveryResult::Status::kIoError;
    res.detail = "read " + wal_path() + ": " + errno_str();
    return res;
  }

  fd_ = fd;  // replay() needs the fd for repair truncation
  auto snap = load_best_snapshot(wal.size());
  res = replay(wal, snap, mode);
  if (snap.has_value() && res.status == RecoveryResult::Status::kCorrupt) {
    // The damage may sit in the prefix the snapshot vouches for (the fast
    // scan skips chain checks there) or the snapshot itself may lie about
    // the record boundary. Retry from genesis before giving up: the full
    // replay either proves the log good or pins the real damage.
    res = replay(wal, std::nullopt, mode);
  }
  if (!res.ok()) {
    io().close(fd_);
    fd_ = -1;
    return res;
  }
  stats_.recovered_entries = res.entries;
  stats_.recovered_snapshot_index = res.snapshot_index;
  stats_.torn_bytes = res.torn_bytes;
  stats_.corrupt_dropped = res.corrupt_dropped;
  return res;
}

void ReplicaStore::register_observability(obs::Registry& registry) {
  registry.counter_fields({
      {"leopard_store_appends_total", "WAL entries appended", &stats_.appends},
      {"leopard_store_append_errors_total", "WAL appends that failed and rolled back",
       &stats_.append_errors},
      {"leopard_store_fsyncs_total", "WAL fsyncs issued", &stats_.fsyncs},
      {"leopard_store_fsync_errors_total", "WAL fsyncs that failed", &stats_.fsync_errors},
      {"leopard_store_snapshots_total", "Snapshots written", &stats_.snapshots_written},
      {"leopard_store_snapshot_errors_total", "Snapshot writes that failed",
       &stats_.snapshot_errors},
  });
  registry.gauge_fields({
      {"leopard_store_recovered_entries", "WAL entries recovered at boot",
       &stats_.recovered_entries},
      {"leopard_store_recovered_snapshot_index", "Entries covered by the snapshot loaded at boot",
       &stats_.recovered_snapshot_index},
      {"leopard_store_torn_bytes", "Torn WAL tail bytes truncated at boot", &stats_.torn_bytes},
      {"leopard_store_corrupt_dropped_bytes", "WAL bytes dropped by --recover truncate at boot",
       &stats_.corrupt_dropped},
  });
  registry.gauge_fn("leopard_store_entries", "Entries in the WAL", {},
                    [this] { return static_cast<double>(entries()); });
}

std::optional<ReplicaStore::Snapshot> ReplicaStore::load_best_snapshot(
    std::uint64_t wal_size) {
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& name : io().list_dir(opts_.dir)) {
    std::uint64_t index = 0;
    if (parse_snapshot_index(name, index)) candidates.emplace_back(index, name);
  }
  std::sort(candidates.rbegin(), candidates.rend());
  for (const auto& [index, name] : candidates) {
    auto snap = read_snapshot(name);
    if (snap.has_value() && snap->wal_offset <= wal_size) return snap;
  }
  return std::nullopt;
}

std::optional<ReplicaStore::Snapshot> ReplicaStore::read_snapshot(
    const std::string& name) {
  const auto path = opts_.dir + "/" + name;
  const int fd = io().open_rw(path);
  if (fd < 0) return std::nullopt;
  const auto size = io().file_size(fd);
  if (size <= 0 || static_cast<std::uint64_t>(size) >
                       kRecordHeaderBytes + kMaxRecordPayloadBytes) {
    io().close(fd);
    return std::nullopt;
  }
  util::Bytes data(static_cast<std::size_t>(size));
  const bool read_ok = io().pread_exact(fd, 0, data);
  io().close(fd);
  if (!read_ok) return std::nullopt;

  const auto rec = scan_record(data, 0);
  if (rec.status != RecordScan::Status::kRecord || rec.next_offset != data.size()) {
    return std::nullopt;
  }
  try {
    util::ByteReader r(rec.payload);
    if (r.u32() != kSnapshotMagic || r.u8() != kSnapshotVersion) return std::nullopt;
    Snapshot snap;
    snap.entries = r.u64();
    snap.wal_offset = r.u64();
    snap.executed_requests = r.u64();
    snap.tail_seq = r.u64();
    snap.tail_ordinal = r.u32();
    snap.exec_digest = read_digest(r);
    if (!r.done()) return std::nullopt;
    snap.filename = name;
    return snap;
  } catch (const util::ContractViolation&) {
    return std::nullopt;
  }
}

RecoveryResult ReplicaStore::replay(std::span<const std::uint8_t> wal,
                                    const std::optional<Snapshot>& snap,
                                    RecoverMode mode) {
  RecoveryResult res;
  entry_spans_.clear();
  exec_digest_ = crypto::Digest{};
  executed_requests_ = 0;
  tail_seq_ = 0;
  tail_ordinal_ = 0;

  const std::uint64_t fast_until = snap.has_value() ? snap->wal_offset : 0;
  std::uint64_t offset = 0;
  std::uint64_t valid_end = 0;
  bool snapshot_applied = !snap.has_value();

  const auto fail_at = [&](std::uint64_t at, const std::string& what) -> bool {
    // Returns true if replay may continue (kTruncate repaired); false aborts.
    if (mode == RecoverMode::kStrict) {
      res.status = RecoveryResult::Status::kCorrupt;
      res.detail = what + " at offset " + std::to_string(at) +
                   " (record " + std::to_string(entry_spans_.size()) +
                   "); rerun with --recover=truncate to drop the damaged suffix";
      return false;
    }
    res.corrupt_dropped = wal.size() - at;
    res.detail = what + " at offset " + std::to_string(at) + ": truncated";
    return true;
  };

  while (true) {
    const auto rec = scan_record(wal, offset);
    if (rec.status == RecordScan::Status::kEnd) break;
    if (rec.status == RecordScan::Status::kTorn) {
      res.torn_bytes = wal.size() - offset;
      break;
    }
    if (rec.status == RecordScan::Status::kCorrupt) {
      if (!fail_at(offset, "checksum/length failure")) return res;
      break;
    }

    const auto index = entry_spans_.size();
    if (offset >= fast_until && !snapshot_applied) {
      // First record at or past the snapshot's claimed end of prefix. It
      // must land exactly on the boundary with exactly the promised record
      // count — a snapshot pointing mid-record lies about the log.
      if (offset != fast_until || index != snap->entries) {
        if (!fail_at(offset, "snapshot/log boundary mismatch")) return res;
        break;
      }
      exec_digest_ = snap->exec_digest;
      executed_requests_ = snap->executed_requests;
      tail_seq_ = snap->tail_seq;
      tail_ordinal_ = snap->tail_ordinal;
      res.snapshot_index = snap->entries;
      snapshot_applied = true;
    }
    if (snapshot_applied) {
      // Full validation of the replayed suffix: decode, index continuity,
      // exec_digest chain. The prefix below the snapshot is CRC-checked
      // only — the snapshot vouches for its state.
      util::ByteReader r(rec.payload);
      const auto entry = decode_entry(r);
      if (!entry.has_value() || !r.done()) {
        if (!fail_at(offset, "undecodable entry")) return res;
        break;
      }
      if (entry->index != index) {
        if (!fail_at(offset, "index discontinuity")) return res;
        break;
      }
      if (fold_exec_digest(exec_digest_, entry->block_digest) != entry->post_digest) {
        if (!fail_at(offset, "exec_digest chain mismatch")) return res;
        break;
      }
      exec_digest_ = entry->post_digest;
      executed_requests_ += entry->requests;
      tail_seq_ = entry->seq;
      tail_ordinal_ = entry->ordinal;
    }
    entry_spans_.push_back(
        {offset, static_cast<std::uint32_t>(rec.payload.size())});
    offset = rec.next_offset;
    valid_end = offset;
  }

  if (snap.has_value() && !snapshot_applied) {
    if (valid_end == fast_until && entry_spans_.size() == snap->entries) {
      // The log ends exactly at the snapshot boundary (nothing appended
      // since, or a torn tail right after it): the snapshot IS the state.
      exec_digest_ = snap->exec_digest;
      executed_requests_ = snap->executed_requests;
      tail_seq_ = snap->tail_seq;
      tail_ordinal_ = snap->tail_ordinal;
      res.snapshot_index = snap->entries;
    } else {
      // The log ended before reaching the snapshot's claimed boundary (torn
      // or repaired away). The snapshot state cannot be joined to what is
      // on disk; report corruption so open() retries from genesis.
      res.status = RecoveryResult::Status::kCorrupt;
      res.detail = "snapshot claims more log than survives on disk";
      return res;
    }
  }

  if (valid_end < wal.size()) {
    if (!io().ftruncate(fd_, valid_end)) {
      res.status = RecoveryResult::Status::kIoError;
      res.detail = "truncating damaged tail: " + errno_str();
      return res;
    }
  }
  wal_size_ = valid_end;
  res.status = wal.empty() ? RecoveryResult::Status::kFreshStart
                           : RecoveryResult::Status::kRecovered;
  res.entries = entry_spans_.size();
  res.executed_requests = executed_requests_;
  res.exec_digest = exec_digest_;
  return res;
}

bool ReplicaStore::append(std::uint64_t seq, std::uint32_t ordinal,
                          const crypto::Digest& block_digest, std::uint64_t requests,
                          std::span<const std::uint8_t> frame, sim::SimTime now,
                          std::string* err) {
  util::expects(is_open(), "ReplicaStore::append before open");
  const auto append_t0 = obs::mono_now_ns();
  WalEntryHead entry;
  entry.index = entries();
  entry.seq = seq;
  entry.ordinal = ordinal;
  entry.requests = requests;
  entry.block_digest = block_digest;
  entry.post_digest = fold_exec_digest(exec_digest_, block_digest);
  encode_entry_record(entry, frame, record_);

  std::size_t written = 0;
  while (written < record_.size()) {
    const auto n = io().append(
        fd_, std::span<const std::uint8_t>(record_).subspan(written));
    if (n <= 0) {
      // Short-then-failed write (ENOSPC, I/O error): roll the file back to
      // the last good record boundary so the log never ends mid-record.
      ++stats_.append_errors;
      set_err(err, "wal append: " + (n < 0 ? errno_str() : std::string("no progress")));
      io().ftruncate(fd_, wal_size_);  // best effort; recovery repairs anyway
      return false;
    }
    written += static_cast<std::size_t>(n);
  }

  entry_spans_.push_back(
      {wal_size_, static_cast<std::uint32_t>(record_.size() - kRecordHeaderBytes)});
  wal_size_ += record_.size();
  exec_digest_ = entry.post_digest;
  executed_requests_ += requests;
  tail_seq_ = seq;
  tail_ordinal_ = ordinal;
  dirty_ = true;
  ++stats_.appends;
  wal_append_hist().record_since(append_t0);

  bool ok = true;
  switch (opts_.fsync_policy) {
    case FsyncPolicy::kAlways:
      ok = do_fsync();
      break;
    case FsyncPolicy::kInterval:
      if (now - last_fsync_ >= opts_.fsync_interval) {
        ok = do_fsync();
        last_fsync_ = now;
      }
      break;
    case FsyncPolicy::kNever:
      break;
  }
  if (!ok) set_err(err, "wal fsync: " + errno_str());

  maybe_snapshot();
  return ok;
}

bool ReplicaStore::flush(std::string* err) {
  if (!is_open() || !dirty_) return true;
  if (opts_.fsync_policy == FsyncPolicy::kNever) return true;
  if (!do_fsync()) {
    set_err(err, "wal fsync: " + errno_str());
    return false;
  }
  return true;
}

bool ReplicaStore::do_fsync() {
  ++stats_.fsyncs;
  const auto t0 = obs::mono_now_ns();
  if (!io().fsync(fd_)) {
    ++stats_.fsync_errors;
    return false;
  }
  wal_fsync_hist().record_since(t0);
  dirty_ = false;
  return true;
}

bool ReplicaStore::read_entries(std::uint64_t from, std::uint64_t to,
                                std::vector<WalEntry>& out) const {
  util::expects(is_open(), "ReplicaStore::read_entries before open");
  if (from > to || to > entries()) return false;
  out.clear();
  out.reserve(to - from);
  util::Bytes buf;
  for (std::uint64_t i = from; i < to; ++i) {
    const auto& span = entry_spans_[i];
    buf.resize(kRecordHeaderBytes + span.payload_len);
    if (!io().pread_exact(fd_, span.offset, buf)) return false;
    const auto rec = scan_record(buf, 0);
    if (rec.status != RecordScan::Status::kRecord) return false;
    util::ByteReader r(rec.payload);
    auto entry = decode_entry(r);
    if (!entry.has_value() || !r.done() || entry->index != i) return false;
    out.push_back(std::move(*entry));
  }
  return true;
}

bool ReplicaStore::digest_at(std::uint64_t index, crypto::Digest& out) const {
  util::expects(is_open(), "ReplicaStore::digest_at before open");
  if (index > entries()) return false;
  if (index == entries()) {
    out = exec_digest_;
    return true;
  }
  if (index == 0) {
    out = crypto::Digest{};
    return true;
  }
  std::vector<WalEntry> one;
  if (!read_entries(index - 1, index, one)) return false;
  out = one.front().post_digest;
  return true;
}

void ReplicaStore::maybe_snapshot() {
  if (opts_.snapshot_every == 0 || entries() == 0) return;
  if (entries() % opts_.snapshot_every != 0) return;

  // The snapshot asserts the WAL prefix below wal_offset is durable; make it
  // so before the rename lands (pointless under kNever — recovery falls back
  // to an older generation or full replay if the prefix went missing).
  if (opts_.fsync_policy != FsyncPolicy::kNever && dirty_ && !do_fsync()) {
    ++stats_.snapshot_errors;
    return;
  }

  util::ByteWriter w(128);
  w.u32(kSnapshotMagic);
  w.u8(kSnapshotVersion);
  w.u64(entries());
  w.u64(wal_size_);
  w.u64(executed_requests_);
  w.u64(tail_seq_);
  w.u32(tail_ordinal_);
  w.raw(exec_digest_.bytes());
  const auto record = frame_record(w.bytes());

  const auto tmp = opts_.dir + "/snap.tmp";
  io().unlink(tmp);  // stale tmp from a crashed predecessor
  const int fd = io().open_rw(tmp);
  if (fd < 0) {
    ++stats_.snapshot_errors;
    return;
  }
  std::size_t written = 0;
  while (written < record.size()) {
    const auto n =
        io().append(fd, std::span<const std::uint8_t>(record).subspan(written));
    if (n <= 0) {
      io().close(fd);
      io().unlink(tmp);
      ++stats_.snapshot_errors;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = io().fsync(fd);
  io().close(fd);
  if (!synced ||
      !io().rename(tmp, opts_.dir + "/" + snapshot_name(entries(), exec_digest_))) {
    io().unlink(tmp);
    ++stats_.snapshot_errors;
    return;
  }
  io().fsync_dir(opts_.dir);  // make the rename itself durable
  ++stats_.snapshots_written;
  gc_snapshots();
}

void ReplicaStore::gc_snapshots() {
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  for (const auto& name : io().list_dir(opts_.dir)) {
    std::uint64_t index = 0;
    if (parse_snapshot_index(name, index)) snaps.emplace_back(index, name);
  }
  if (snaps.size() <= opts_.keep_snapshots) return;
  std::sort(snaps.rbegin(), snaps.rend());
  for (std::size_t i = opts_.keep_snapshots; i < snaps.size(); ++i) {
    io().unlink(opts_.dir + "/" + snaps[i].second);
  }
}

}  // namespace leopard::store
