#include "net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace leopard::net {

namespace {

using util::ByteReader;
using util::ByteWriter;

// Guard against allocation-bomb counts: every element of a decoded sequence
// occupies at least `min_element_bytes` of the remaining body, so a count
// beyond remaining/min is malformed and decoding bails before reserving.
std::uint32_t read_count(util::ByteReader& r, std::size_t min_element_bytes) {
  const auto count = r.u32();
  util::expects(count <= r.remaining() / min_element_bytes,
                "wire: element count exceeds body size");
  return count;
}

void write_digest(ByteWriter& w, const crypto::Digest& d) { w.raw(d.bytes()); }

crypto::Digest read_digest(ByteReader& r) {
  crypto::Sha256::DigestBytes bytes{};
  const auto view = r.raw(crypto::Digest::kSize);
  std::memcpy(bytes.data(), view.data(), bytes.size());
  return crypto::Digest(bytes);
}

void write_share(ByteWriter& w, const crypto::SignatureShare& s) {
  w.u32(s.signer);
  w.raw(s.bytes);
}

crypto::SignatureShare read_share(ByteReader& r) {
  crypto::SignatureShare s;
  s.signer = r.u32();
  const auto view = r.raw(crypto::kSignatureSize);
  std::memcpy(s.bytes.data(), view.data(), s.bytes.size());
  return s;
}

void write_tsig(ByteWriter& w, const crypto::ThresholdSignature& s) { w.raw(s.bytes); }

crypto::ThresholdSignature read_tsig(ByteReader& r) {
  crypto::ThresholdSignature s;
  const auto view = r.raw(crypto::kSignatureSize);
  std::memcpy(s.bytes.data(), view.data(), s.bytes.size());
  return s;
}

/// Minimum encoded size of a Request: client_id + seq + payload_size + the
/// payload blob's own length prefix.
constexpr std::size_t kMinRequestBytes = 8 + 8 + 4 + 4;

proto::Request read_request(ByteReader& r, sim::SimTime local_now) {
  auto req = proto::Request::decode(r);
  req.submitted_at = local_now;  // sim-only metadata: receiver's clock
  return req;
}

// --- per-type body encoders --------------------------------------------------

void encode_body(ByteWriter& w, const proto::ClientRequestMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.requests.size()));
  for (const auto& req : m.requests) req.encode(w);
}

void encode_body(ByteWriter& w, const proto::AckMsg& m) {
  w.u64(m.client_id);
  w.u32(static_cast<std::uint32_t>(m.seqs.size()));
  for (const auto seq : m.seqs) w.u64(seq);
}

void encode_body(ByteWriter& w, const proto::DatablockMsg& m) { m.datablock.encode(w); }

void encode_body(ByteWriter& w, const proto::ReadyMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.datablock_hashes.size()));
  for (const auto& d : m.datablock_hashes) write_digest(w, d);
}

void encode_body(ByteWriter& w, const proto::BftBlockMsg& m) {
  m.block.encode(w);
  write_share(w, m.leader_share);
}

void encode_body(ByteWriter& w, const proto::VoteMsg& m) {
  w.u8(m.round);
  write_digest(w, m.block_digest);
  write_share(w, m.share);
}

void encode_body(ByteWriter& w, const proto::ProofMsg& m) {
  w.u8(m.round);
  write_digest(w, m.block_digest);
  write_tsig(w, m.signature);
}

void encode_body(ByteWriter& w, const proto::QueryMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.missing.size()));
  for (const auto& d : m.missing) write_digest(w, d);
}

void encode_body(ByteWriter& w, const proto::ChunkResponseMsg& m) {
  write_digest(w, m.datablock_hash);
  write_digest(w, m.merkle_root);
  w.u32(m.chunk_index);
  w.u32(m.leaf_count);
  w.u32(m.chunk_size);
  w.blob(m.chunk);
  w.u32(static_cast<std::uint32_t>(m.proof.size()));
  for (const auto& d : m.proof) write_digest(w, d);
}

void encode_body(ByteWriter& w, const proto::CheckpointMsg& m) {
  w.u64(m.sn);
  write_digest(w, m.state);
  std::uint8_t flags = 0;
  if (m.share) flags |= 1u;
  if (m.signature) flags |= 2u;
  w.u8(flags);
  if (m.share) write_share(w, *m.share);
  if (m.signature) write_tsig(w, *m.signature);
}

void encode_body(ByteWriter& w, const proto::TimeoutMsg& m) {
  w.u32(m.view);
  write_share(w, m.share);
}

void encode_body(ByteWriter& w, const proto::ViewChangeMsg& m) {
  w.u32(m.new_view);
  w.u64(m.checkpoint_sn);
  write_digest(w, m.checkpoint_state);
  write_tsig(w, m.checkpoint_proof);
  w.u32(static_cast<std::uint32_t>(m.notarized.size()));
  for (const auto& nb : m.notarized) {
    nb.block.encode(w);
    write_tsig(w, nb.notarization);
  }
  write_share(w, m.sender_sig);
  w.u32(m.sender);
}

void encode_body(ByteWriter& w, const proto::NewViewMsg& m) {
  w.u32(m.new_view);
  w.u32(static_cast<std::uint32_t>(m.view_changes.size()));
  for (const auto& vc : m.view_changes) encode_body(w, vc);
  write_share(w, m.leader_sig);
}

void encode_body(ByteWriter& w, const proto::BaselineBlockMsg& m) {
  w.u32(m.view);
  w.u64(m.height);
  write_digest(w, m.parent);
  write_digest(w, m.justify_target);
  write_tsig(w, m.justify_sig);
  w.u32(static_cast<std::uint32_t>(m.batch.size()));
  for (const auto& req : m.batch) req.encode(w);
}

void encode_body(ByteWriter& w, const proto::BaselineVoteMsg& m) {
  w.u8(m.phase);
  w.u32(m.view);
  w.u64(m.height);
  write_digest(w, m.block_digest);
  write_share(w, m.share);
}

void encode_body(ByteWriter& w, const proto::StateOfferMsg& m) {
  w.u8(m.kind);
  w.u64(m.transfer_id);
  w.u64(m.from_index);
  w.u64(m.until_index);
  write_digest(w, m.exec_digest);
}

void encode_body(ByteWriter& w, const proto::StateChunkMsg& m) {
  w.u64(m.transfer_id);
  w.u64(m.from_index);
  w.u64(m.until_index);
  write_digest(w, m.exec_digest);
  w.u32(m.chunk_index);
  w.u32(m.data_shards);
  w.u32(m.total_shards);
  w.blob(m.chunk);
}

// --- per-type body decoders --------------------------------------------------

sim::PayloadPtr decode_client_request(ByteReader& r, sim::SimTime now) {
  auto m = std::make_shared<proto::ClientRequestMsg>();
  const auto count = read_count(r, kMinRequestBytes);
  m->requests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->requests.push_back(read_request(r, now));
  return m;
}

sim::PayloadPtr decode_ack(ByteReader& r) {
  auto m = std::make_shared<proto::AckMsg>();
  m->client_id = r.u64();
  const auto count = read_count(r, 8);
  m->seqs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->seqs.push_back(r.u64());
  return m;
}

sim::PayloadPtr decode_datablock(ByteReader& r, sim::SimTime now) {
  // The canonical decoder (messages.cpp) is the single definition of the
  // Datablock encoding (and carries its own hostile-count bound); only the
  // sim-metadata stamping is wire-specific. DatablockMsg's constructor
  // recomputes cached_digest from the decoded content, so a relayed digest
  // can never disagree with the bytes.
  auto db = proto::Datablock::decode(r);
  for (auto& req : db.requests) req.submitted_at = now;
  auto m = std::make_shared<proto::DatablockMsg>(std::move(db));
  m->created_at = now;
  return m;
}

sim::PayloadPtr decode_ready(ByteReader& r) {
  auto m = std::make_shared<proto::ReadyMsg>();
  const auto count = read_count(r, crypto::Digest::kSize);
  m->datablock_hashes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->datablock_hashes.push_back(read_digest(r));
  return m;
}

sim::PayloadPtr decode_bftblock(ByteReader& r) {
  auto block = proto::BftBlock::decode(r);
  const auto share = read_share(r);
  return std::make_shared<proto::BftBlockMsg>(std::move(block), share);
}

sim::PayloadPtr decode_vote(ByteReader& r) {
  auto m = std::make_shared<proto::VoteMsg>();
  m->round = r.u8();
  m->block_digest = read_digest(r);
  m->share = read_share(r);
  return m;
}

sim::PayloadPtr decode_proof(ByteReader& r) {
  auto m = std::make_shared<proto::ProofMsg>();
  m->round = r.u8();
  m->block_digest = read_digest(r);
  m->signature = read_tsig(r);
  return m;
}

sim::PayloadPtr decode_query(ByteReader& r) {
  auto m = std::make_shared<proto::QueryMsg>();
  const auto count = read_count(r, crypto::Digest::kSize);
  m->missing.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->missing.push_back(read_digest(r));
  return m;
}

sim::PayloadPtr decode_chunk_response(ByteReader& r) {
  auto m = std::make_shared<proto::ChunkResponseMsg>();
  m->datablock_hash = read_digest(r);
  m->merkle_root = read_digest(r);
  m->chunk_index = r.u32();
  m->leaf_count = r.u32();
  m->chunk_size = r.u32();
  const auto chunk = r.blob();
  m->chunk.assign(chunk.begin(), chunk.end());
  const auto count = read_count(r, crypto::Digest::kSize);
  m->proof.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->proof.push_back(read_digest(r));
  return m;
}

sim::PayloadPtr decode_checkpoint(ByteReader& r) {
  auto m = std::make_shared<proto::CheckpointMsg>();
  m->sn = r.u64();
  m->state = read_digest(r);
  const auto flags = r.u8();
  if ((flags & 1u) != 0) m->share = read_share(r);
  if ((flags & 2u) != 0) m->signature = read_tsig(r);
  return m;
}

sim::PayloadPtr decode_timeout(ByteReader& r) {
  auto m = std::make_shared<proto::TimeoutMsg>();
  m->view = r.u32();
  m->share = read_share(r);
  return m;
}

void decode_view_change_body(ByteReader& r, proto::ViewChangeMsg& m) {
  m.new_view = r.u32();
  m.checkpoint_sn = r.u64();
  m.checkpoint_state = read_digest(r);
  m.checkpoint_proof = read_tsig(r);
  const auto count = read_count(r, 16 + crypto::kSignatureSize);
  m.notarized.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    proto::NotarizedBlock nb;
    nb.block = proto::BftBlock::decode(r);
    nb.notarization = read_tsig(r);
    m.notarized.push_back(std::move(nb));
  }
  m.sender_sig = read_share(r);
  m.sender = r.u32();
}

sim::PayloadPtr decode_view_change(ByteReader& r) {
  auto m = std::make_shared<proto::ViewChangeMsg>();
  decode_view_change_body(r, *m);
  return m;
}

sim::PayloadPtr decode_new_view(ByteReader& r) {
  auto m = std::make_shared<proto::NewViewMsg>();
  m->new_view = r.u32();
  const auto count = read_count(r, 64);
  m->view_changes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    proto::ViewChangeMsg vc;
    decode_view_change_body(r, vc);
    m->view_changes.push_back(std::move(vc));
  }
  m->leader_sig = read_share(r);
  return m;
}

sim::PayloadPtr decode_baseline_block(ByteReader& r, sim::SimTime now) {
  auto m = std::make_shared<proto::BaselineBlockMsg>();
  m->view = r.u32();
  m->height = r.u64();
  m->parent = read_digest(r);
  m->justify_target = read_digest(r);
  m->justify_sig = read_tsig(r);
  const auto count = read_count(r, kMinRequestBytes);
  m->batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m->batch.push_back(read_request(r, now));
  // Recompute the digest the proposer caches — the shared definition, so a
  // relayed digest can never disagree with the bytes or the formula.
  m->cached_digest = m->compute_digest();
  return m;
}

sim::PayloadPtr decode_baseline_vote(ByteReader& r) {
  auto m = std::make_shared<proto::BaselineVoteMsg>();
  m->phase = r.u8();
  m->view = r.u32();
  m->height = r.u64();
  m->block_digest = read_digest(r);
  m->share = read_share(r);
  return m;
}

sim::PayloadPtr decode_state_offer(ByteReader& r) {
  auto m = std::make_shared<proto::StateOfferMsg>();
  m->kind = r.u8();
  if (m->kind > proto::StateOfferMsg::kPull) return nullptr;
  m->transfer_id = r.u64();
  m->from_index = r.u64();
  m->until_index = r.u64();
  m->exec_digest = read_digest(r);
  return m;
}

sim::PayloadPtr decode_state_chunk(ByteReader& r) {
  auto m = std::make_shared<proto::StateChunkMsg>();
  m->transfer_id = r.u64();
  m->from_index = r.u64();
  m->until_index = r.u64();
  m->exec_digest = read_digest(r);
  m->chunk_index = r.u32();
  m->data_shards = r.u32();
  m->total_shards = r.u32();
  const auto chunk = r.blob();
  m->chunk.assign(chunk.begin(), chunk.end());
  return m;
}

}  // namespace

namespace {

/// One RTTI probe, validating that the payload really is the class its
/// component tag claims (a mismatched subclass yields nullopt, never UB).
template <typename T>
std::optional<MsgType> check_is(const sim::Payload& payload, MsgType type) {
  if (dynamic_cast<const T*>(&payload) != nullptr) return type;
  return std::nullopt;
}

}  // namespace

std::optional<MsgType> type_of(const sim::Payload& payload) {
  // Keyed on the component tag (already 1:1 with the message class, except
  // the two request-dissemination and vote buckets shared with the
  // baselines), so the send hot path pays one or two dynamic_cast probes
  // instead of a 15-deep chain.
  switch (payload.component()) {
    case sim::Component::kClientRequest:
      return check_is<proto::ClientRequestMsg>(payload, MsgType::kClientRequest);
    case sim::Component::kAck:
      return check_is<proto::AckMsg>(payload, MsgType::kAck);
    case sim::Component::kDatablock:
      if (dynamic_cast<const proto::DatablockMsg*>(&payload) != nullptr) {
        return MsgType::kDatablock;
      }
      return check_is<proto::BaselineBlockMsg>(payload, MsgType::kBaselineBlock);
    case sim::Component::kReady:
      return check_is<proto::ReadyMsg>(payload, MsgType::kReady);
    case sim::Component::kBftBlock:
      return check_is<proto::BftBlockMsg>(payload, MsgType::kBftBlock);
    case sim::Component::kVote:
      if (dynamic_cast<const proto::VoteMsg*>(&payload) != nullptr) {
        return MsgType::kVote;
      }
      return check_is<proto::BaselineVoteMsg>(payload, MsgType::kBaselineVote);
    case sim::Component::kProof:
      return check_is<proto::ProofMsg>(payload, MsgType::kProof);
    case sim::Component::kQuery:
      return check_is<proto::QueryMsg>(payload, MsgType::kQuery);
    case sim::Component::kChunkResponse:
      return check_is<proto::ChunkResponseMsg>(payload, MsgType::kChunkResponse);
    case sim::Component::kCheckpoint:
      return check_is<proto::CheckpointMsg>(payload, MsgType::kCheckpoint);
    case sim::Component::kTimeout:
      return check_is<proto::TimeoutMsg>(payload, MsgType::kTimeout);
    case sim::Component::kViewChange:
      return check_is<proto::ViewChangeMsg>(payload, MsgType::kViewChange);
    case sim::Component::kNewView:
      return check_is<proto::NewViewMsg>(payload, MsgType::kNewView);
    case sim::Component::kStateOffer:
      return check_is<proto::StateOfferMsg>(payload, MsgType::kStateOffer);
    case sim::Component::kStateChunk:
      return check_is<proto::StateChunkMsg>(payload, MsgType::kStateChunk);
    default:
      return std::nullopt;  // kMisc / application-defined payloads: no wire form
  }
}

bool encode_frame(const sim::Payload& payload, util::Bytes& out) {
  return encode_frame(payload, /*instance=*/0, out);
}

namespace {

/// Serializes `payload`, whose wire type is `type` (type_of), as tag + body
/// (no length prefix) into `w`. The single definition both the contiguous
/// and the shared-frame encoders go through.
void encode_tag_and_body(const sim::Payload& payload, MsgType type, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case MsgType::kClientRequest:
      encode_body(w, static_cast<const proto::ClientRequestMsg&>(payload));
      break;
    case MsgType::kAck:
      encode_body(w, static_cast<const proto::AckMsg&>(payload));
      break;
    case MsgType::kDatablock:
      encode_body(w, static_cast<const proto::DatablockMsg&>(payload));
      break;
    case MsgType::kReady:
      encode_body(w, static_cast<const proto::ReadyMsg&>(payload));
      break;
    case MsgType::kBftBlock:
      encode_body(w, static_cast<const proto::BftBlockMsg&>(payload));
      break;
    case MsgType::kVote:
      encode_body(w, static_cast<const proto::VoteMsg&>(payload));
      break;
    case MsgType::kProof:
      encode_body(w, static_cast<const proto::ProofMsg&>(payload));
      break;
    case MsgType::kQuery:
      encode_body(w, static_cast<const proto::QueryMsg&>(payload));
      break;
    case MsgType::kChunkResponse:
      encode_body(w, static_cast<const proto::ChunkResponseMsg&>(payload));
      break;
    case MsgType::kCheckpoint:
      encode_body(w, static_cast<const proto::CheckpointMsg&>(payload));
      break;
    case MsgType::kTimeout:
      encode_body(w, static_cast<const proto::TimeoutMsg&>(payload));
      break;
    case MsgType::kViewChange:
      encode_body(w, static_cast<const proto::ViewChangeMsg&>(payload));
      break;
    case MsgType::kNewView:
      encode_body(w, static_cast<const proto::NewViewMsg&>(payload));
      break;
    case MsgType::kBaselineBlock:
      encode_body(w, static_cast<const proto::BaselineBlockMsg&>(payload));
      break;
    case MsgType::kBaselineVote:
      encode_body(w, static_cast<const proto::BaselineVoteMsg&>(payload));
      break;
    case MsgType::kStateOffer:
      encode_body(w, static_cast<const proto::StateOfferMsg&>(payload));
      break;
    case MsgType::kStateChunk:
      encode_body(w, static_cast<const proto::StateChunkMsg&>(payload));
      break;
    case MsgType::kHello:
    case MsgType::kShardFrame:
      break;  // unreachable: type_of never yields either
  }
}

/// Fills a SharedFrame's inline header for a body of `body_size` bytes
/// addressed to `instance` (0: bare 4-byte length prefix; else the 9-byte
/// length + envelope prefix). Byte-identical to the contiguous layout.
void fill_shared_header(SharedFrame& frame, std::size_t body_size, std::uint32_t instance) {
  const auto put_u32 = [&frame](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      frame.header[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  if (instance == 0) {
    put_u32(0, static_cast<std::uint32_t>(body_size));
    frame.header_len = 4;
    return;
  }
  put_u32(0, static_cast<std::uint32_t>(body_size + 5));
  frame.header[4] = static_cast<std::uint8_t>(MsgType::kShardFrame);
  put_u32(5, instance);
  frame.header_len = 9;
}

}  // namespace

bool encode_frame(const sim::Payload& payload, std::uint32_t instance, util::Bytes& out) {
  const auto type = type_of(payload);
  if (!type) return false;

  // Tag and body go straight into `out` behind a placeholder length, which
  // is patched once the body size is known: one pass, no staging buffer.
  const std::size_t start = out.size();
  // Room for the largest header plus tag + body (wire_size() and the same
  // slack encode_shared_frame reserves).
  const std::size_t need = start + SharedFrame::kMaxHeaderBytes + payload.wire_size() + 8;
  if (out.capacity() < need) out.reserve(std::max(need, 2 * out.capacity()));
  ByteWriter w(std::move(out));
  w.u32(0);
  if (instance != 0) {
    // kShardFrame envelope: u32 len | u8 kShardFrame | u32 instance | inner.
    // Instance 0 stays the bare, pre-shard frame.
    w.u8(static_cast<std::uint8_t>(MsgType::kShardFrame));
    w.u32(instance);
  }
  encode_tag_and_body(payload, *type, w);
  w.patch_u32(start, static_cast<std::uint32_t>(w.size() - start - kFrameHeaderBytes));
  out = w.take();
  return true;
}

bool encode_shared_frame(const sim::Payload& payload, std::uint32_t instance,
                         SharedFrame& out) {
  const auto type = type_of(payload);
  if (!type) return false;
  ByteWriter w(payload.wire_size() + 8);
  encode_tag_and_body(payload, *type, w);
  out.body = std::make_shared<const util::Bytes>(w.take());
  fill_shared_header(out, out.body->size(), instance);
  return true;
}

util::Bytes encode_frame(const sim::Payload& payload) {
  return encode_frame(payload, /*instance=*/0);
}

util::Bytes encode_frame(const sim::Payload& payload, std::uint32_t instance) {
  util::Bytes out;
  const bool ok = encode_frame(payload, instance, out);
  util::ensures(ok, "encode_frame: payload type has no wire form");
  return out;
}

util::Bytes encode_hello_frame(const Hello& hello) {
  util::Bytes out;
  ByteWriter body(9);
  body.u8(static_cast<std::uint8_t>(MsgType::kHello));
  body.u32(hello.magic);
  body.u32(hello.node_id);
  ByteWriter header(kFrameHeaderBytes);
  header.u32(static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
  out.insert(out.end(), body.bytes().begin(), body.bytes().end());
  return out;
}

std::optional<Hello> decode_hello(std::span<const std::uint8_t> body) {
  try {
    ByteReader r(body);
    Hello h;
    h.magic = r.u32();
    h.node_id = r.u32();
    if (h.magic != Hello::kMagic || !r.done()) return std::nullopt;
    return h;
  } catch (const util::ContractViolation&) {
    return std::nullopt;
  }
}

sim::PayloadPtr decode_payload(MsgType type, std::span<const std::uint8_t> body,
                               sim::SimTime local_now) {
  try {
    ByteReader r(body);
    sim::PayloadPtr msg;
    switch (type) {
      case MsgType::kClientRequest:
        msg = decode_client_request(r, local_now);
        break;
      case MsgType::kAck:
        msg = decode_ack(r);
        break;
      case MsgType::kDatablock:
        msg = decode_datablock(r, local_now);
        break;
      case MsgType::kReady:
        msg = decode_ready(r);
        break;
      case MsgType::kBftBlock:
        msg = decode_bftblock(r);
        break;
      case MsgType::kVote:
        msg = decode_vote(r);
        break;
      case MsgType::kProof:
        msg = decode_proof(r);
        break;
      case MsgType::kQuery:
        msg = decode_query(r);
        break;
      case MsgType::kChunkResponse:
        msg = decode_chunk_response(r);
        break;
      case MsgType::kCheckpoint:
        msg = decode_checkpoint(r);
        break;
      case MsgType::kTimeout:
        msg = decode_timeout(r);
        break;
      case MsgType::kViewChange:
        msg = decode_view_change(r);
        break;
      case MsgType::kNewView:
        msg = decode_new_view(r);
        break;
      case MsgType::kBaselineBlock:
        msg = decode_baseline_block(r, local_now);
        break;
      case MsgType::kBaselineVote:
        msg = decode_baseline_vote(r);
        break;
      case MsgType::kStateOffer:
        msg = decode_state_offer(r);
        break;
      case MsgType::kStateChunk:
        msg = decode_state_chunk(r);
        break;
      case MsgType::kHello:
      case MsgType::kShardFrame:
        // Handshake frames belong to the connection layer; shard envelopes
        // are unwrapped by FrameReader and never reach the payload decoder.
        return nullptr;
    }
    // Trailing garbage after a well-formed body is a framing bug somewhere;
    // reject rather than silently accept a longer-than-declared message.
    if (msg != nullptr && !r.done()) return nullptr;
    return msg;
  } catch (const util::ContractViolation&) {
    return nullptr;  // truncated or inconsistent body
  } catch (const std::bad_alloc&) {
    return nullptr;  // hostile count field within the element limit
  }
}

void FrameReader::feed(std::span<const std::uint8_t> data) {
  if (errored_ || data.empty()) return;
  const auto dst = write_buffer(data.size());
  std::memcpy(dst.data(), data.data(), data.size());
  commit(data.size());
}

std::span<std::uint8_t> FrameReader::write_buffer(std::size_t min_bytes) {
  // Compact the consumed prefix before growing: keeps the buffer bounded by
  // max_frame + one read chunk instead of the whole connection history. Only
  // the committed suffix moves — scratch beyond end_ holds no stream bytes.
  if (pos_ > 0 && (pos_ == end_ || pos_ >= (64u << 10))) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() - end_ < min_bytes) buf_.resize(end_ + min_bytes);
  return {buf_.data() + end_, buf_.size() - end_};
}

void FrameReader::commit(std::size_t n) {
  if (errored_) return;
  util::expects(n <= buf_.size() - end_, "FrameReader: commit past the write buffer");
  end_ += n;
}

FrameReader::Status FrameReader::next(Frame& out) {
  if (errored_) return Status::kError;
  const std::size_t avail = end_ - pos_;
  if (avail < kFrameHeaderBytes) return Status::kNeedMore;

  std::uint32_t len = 0;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
  }
  if (len == 0 || len > max_frame_) {
    errored_ = true;  // stream desync: nothing after this header is trustable
    return Status::kError;
  }
  if (avail < kFrameHeaderBytes + len) return Status::kNeedMore;

  out.type = static_cast<MsgType>(buf_[pos_ + kFrameHeaderBytes]);
  out.instance = 0;
  out.body = std::span<const std::uint8_t>(buf_.data() + pos_ + kFrameHeaderBytes + 1, len - 1);
  pos_ += kFrameHeaderBytes + len;

  if (out.type == MsgType::kShardFrame) {
    // Unwrap the envelope: u32 instance | u8 inner type | inner body. The
    // inner frame must be a real message — a nested envelope or a wrapped
    // Hello is a protocol violation (handshakes identify the connection, not
    // an instance), and a truncated envelope is indistinguishable from
    // desync; all three poison the stream like a bad length header.
    if (out.body.size() < 5) {
      errored_ = true;
      return Status::kError;
    }
    std::uint32_t instance = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      instance |= static_cast<std::uint32_t>(out.body[i]) << (8 * i);
    }
    const auto inner = static_cast<MsgType>(out.body[4]);
    if (inner == MsgType::kShardFrame || inner == MsgType::kHello) {
      errored_ = true;
      return Status::kError;
    }
    out.instance = instance;
    out.type = inner;
    out.body = out.body.subspan(5);
  }
  return Status::kFrame;
}

}  // namespace leopard::net
