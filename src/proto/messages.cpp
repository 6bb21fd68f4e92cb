#include "proto/messages.hpp"

namespace leopard::proto {

void Request::encode(util::ByteWriter& w) const {
  w.u64(client_id);
  w.u64(seq);
  w.u32(payload_size);
  // Synthetic requests carry no materialized bytes; the blob's own length
  // prefix keeps encode/decode symmetric either way (wire_size() remains the
  // paper-accurate payload-bearing size for bandwidth accounting).
  w.blob(payload);
}

Request Request::decode(util::ByteReader& r) {
  Request req;
  req.client_id = r.u64();
  req.seq = r.u64();
  req.payload_size = r.u32();
  const auto view = r.blob();
  req.payload.assign(view.begin(), view.end());
  return req;
}

crypto::Digest Request::digest() const {
  util::ByteWriter w(24 + payload.size());
  w.u64(client_id);
  w.u64(seq);
  w.u32(payload_size);
  w.raw(payload);
  return crypto::Digest::of(w.bytes());
}

std::size_t Datablock::wire_size() const {
  std::size_t reqs = 0;
  for (const auto& r : requests) reqs += r.wire_size();
  return 4 + 8 + 4 + reqs;
}

void Datablock::encode(util::ByteWriter& w) const {
  w.u32(maker);
  w.u64(counter);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const auto& r : requests) r.encode(w);
}

Datablock Datablock::decode(util::ByteReader& r) {
  Datablock db;
  db.maker = r.u32();
  db.counter = r.u64();
  const auto count = r.u32();
  // Each request occupies at least its fixed header; a count beyond that is
  // a malformed (or hostile) buffer — reject before reserving.
  util::expects(count <= r.remaining() / 24, "Datablock count exceeds buffer");
  db.requests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) db.requests.push_back(Request::decode(r));
  return db;
}

crypto::Digest Datablock::digest() const {
  // Digest-of-digests: each Request::digest hashes that request's payload,
  // so the total hashing cost grows with the payload bytes; the outer hash
  // adds 32 bytes per request on top.
  util::ByteWriter w(16 + 32 * requests.size());
  w.u32(maker);
  w.u64(counter);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const auto& r : requests) w.raw(r.digest().bytes());
  return crypto::Digest::of(w.bytes());
}

void BftBlock::encode(util::ByteWriter& w) const {
  w.u32(view);
  w.u64(sn);
  w.u32(static_cast<std::uint32_t>(links.size()));
  for (const auto& link : links) w.raw(link.bytes());
}

BftBlock BftBlock::decode(util::ByteReader& r) {
  BftBlock b;
  b.view = r.u32();
  b.sn = r.u64();
  const auto count = r.u32();
  // Every link is 32 bytes of the remaining buffer; bound before reserving
  // (an attacker-controlled count must never drive the allocation).
  util::expects(count <= r.remaining() / 32, "BftBlock link count exceeds buffer");
  b.links.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    crypto::Sha256::DigestBytes bytes{};
    const auto view = r.raw(32);
    std::copy(view.begin(), view.end(), bytes.begin());
    b.links.emplace_back(bytes);
  }
  return b;
}

crypto::Digest BftBlock::digest() const {
  util::ByteWriter w(16 + 32 * links.size());
  encode(w);
  return crypto::Digest::of(w.bytes());
}

crypto::Digest BaselineBlockMsg::compute_digest() const {
  util::ByteWriter w(12 + 3 * 32 + crypto::ThresholdSignature::kWireSize + 32 * batch.size());
  w.u32(view);
  w.u64(height);
  w.raw(parent.bytes());
  w.raw(justify_target.bytes());
  w.raw(justify_sig.bytes);
  for (const auto& r : batch) w.raw(r.digest().bytes());
  return crypto::Digest::of(w.bytes());
}

}  // namespace leopard::proto
