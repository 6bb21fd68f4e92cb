#include "store/wal_record.hpp"

#include <cstring>
#include <utility>

#include "store/crc32c.hpp"
#include "util/check.hpp"

namespace leopard::store {

namespace {

crypto::Digest read_digest(util::ByteReader& r) {
  crypto::Sha256::DigestBytes bytes{};
  const auto view = r.raw(crypto::Digest::kSize);
  std::memcpy(bytes.data(), view.data(), bytes.size());
  return crypto::Digest(bytes);
}

/// Bytes encode_entry writes ahead of the frame: the head plus the frame's
/// u32 blob length.
constexpr std::size_t kEntryHeadBytes = 8 + 8 + 4 + 8 + 2 * crypto::Digest::kSize + 4;

void encode_entry_parts(util::ByteWriter& w, const WalEntryHead& head,
                        std::span<const std::uint8_t> frame) {
  w.u64(head.index);
  w.u64(head.seq);
  w.u32(head.ordinal);
  w.u64(head.requests);
  w.raw(head.block_digest.bytes());
  w.raw(head.post_digest.bytes());
  w.blob(frame);
}

}  // namespace

void encode_entry(util::ByteWriter& w, const WalEntry& entry) {
  encode_entry_parts(w, entry, entry.frame);
}

void encode_entry_record(const WalEntryHead& head, std::span<const std::uint8_t> frame,
                         util::Bytes& out) {
  const std::size_t payload = kEntryHeadBytes + frame.size();
  util::expects(payload <= kMaxRecordPayloadBytes, "record payload too large");
  out.clear();
  out.reserve(kRecordHeaderBytes + payload);
  util::ByteWriter w(std::move(out));
  w.u32(static_cast<std::uint32_t>(payload));
  w.u32(0);  // CRC32C, patched once the payload is in place
  encode_entry_parts(w, head, frame);
  w.patch_u32(4, crc32c(std::span<const std::uint8_t>(w.bytes()).subspan(kRecordHeaderBytes)));
  out = w.take();
}

std::optional<WalEntry> decode_entry(util::ByteReader& r) {
  try {
    WalEntry e;
    e.index = r.u64();
    e.seq = r.u64();
    e.ordinal = r.u32();
    e.requests = r.u64();
    e.block_digest = read_digest(r);
    e.post_digest = read_digest(r);
    const auto frame = r.blob();
    e.frame.assign(frame.begin(), frame.end());
    return e;
  } catch (const util::ContractViolation&) {
    return std::nullopt;
  }
}

util::Bytes frame_record(std::span<const std::uint8_t> payload) {
  util::expects(payload.size() <= kMaxRecordPayloadBytes, "record payload too large");
  util::ByteWriter w(kRecordHeaderBytes + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32c(payload));
  w.raw(payload);
  return w.take();
}

RecordScan scan_record(std::span<const std::uint8_t> data, std::uint64_t offset) {
  RecordScan out;
  if (offset >= data.size()) {
    out.status = RecordScan::Status::kEnd;
    out.next_offset = offset;
    return out;
  }
  const auto avail = data.size() - offset;
  if (avail < kRecordHeaderBytes) {
    out.status = RecordScan::Status::kTorn;
    return out;
  }
  util::ByteReader r(data.subspan(offset, kRecordHeaderBytes));
  const auto len = r.u32();
  const auto crc = r.u32();
  if (len > kMaxRecordPayloadBytes) {
    // An absurd length is indistinguishable from a bit flip in the length
    // field itself; either way the record is complete garbage, not a tail
    // the process died writing.
    out.status = RecordScan::Status::kCorrupt;
    return out;
  }
  if (avail - kRecordHeaderBytes < len) {
    out.status = RecordScan::Status::kTorn;
    return out;
  }
  const auto payload = data.subspan(offset + kRecordHeaderBytes, len);
  if (crc32c(payload) != crc) {
    out.status = RecordScan::Status::kCorrupt;
    return out;
  }
  out.status = RecordScan::Status::kRecord;
  out.payload = payload;
  out.next_offset = offset + kRecordHeaderBytes + len;
  return out;
}

crypto::Digest fold_exec_digest(const crypto::Digest& prev,
                                const crypto::Digest& block_digest) {
  util::ByteWriter w(2 * crypto::Digest::kSize);
  w.raw(prev.bytes());
  w.raw(block_digest.bytes());
  return crypto::Digest::of(w.bytes());
}

}  // namespace leopard::store
