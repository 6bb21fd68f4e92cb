// Wire layer: frame round-trips for every message type, hard-limit and
// malformed-frame rejection, and partial-read reassembly across split
// read()s (net/wire.hpp); plus the two users of the codec as the definition
// of a message's content: the trace fingerprint and the mutator's field
// corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "chaos/mutator.hpp"
#include "net/manifest.hpp"
#include "net/wire.hpp"
#include "proto/messages.hpp"
#include "protocol/replay.hpp"
#include "util/check.hpp"

using namespace leopard;

namespace {

crypto::Digest digest_of(std::uint8_t fill) {
  crypto::Sha256::DigestBytes b{};
  b.fill(fill);
  return crypto::Digest(b);
}

crypto::SignatureShare share_of(std::uint32_t signer, std::uint8_t fill) {
  crypto::SignatureShare s;
  s.signer = signer;
  s.bytes.fill(fill);
  return s;
}

crypto::ThresholdSignature tsig_of(std::uint8_t fill) {
  crypto::ThresholdSignature s;
  s.bytes.fill(fill);
  return s;
}

proto::Request request_of(std::uint64_t client, std::uint64_t seq, bool real_payload) {
  proto::Request r;
  r.client_id = client;
  r.seq = seq;
  r.payload_size = 48;
  if (real_payload) {
    r.payload.assign(48, static_cast<std::uint8_t>(seq));
  }
  r.submitted_at = 123456;  // sim-only: must NOT survive the wire
  return r;
}

/// Encode → reassemble via FrameReader → decode → re-encode; the re-encoded
/// frame must be byte-identical (a canonical-encoding round trip).
sim::PayloadPtr round_trip(const sim::Payload& msg) {
  const auto frame = net::encode_frame(msg);

  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kFrame);

  const auto decoded = net::decode_payload(f.type, f.body, /*local_now=*/777);
  EXPECT_NE(decoded, nullptr);
  if (decoded == nullptr) return nullptr;

  EXPECT_EQ(net::encode_frame(*decoded), frame) << "re-encode must be byte-identical";
  EXPECT_EQ(decoded->component(), msg.component());
  return decoded;
}

template <typename T>
std::shared_ptr<const T> round_trip_as(const T& msg) {
  auto decoded = std::dynamic_pointer_cast<const T>(round_trip(msg));
  EXPECT_NE(decoded, nullptr) << "decoded to the wrong dynamic type";
  return decoded;
}

/// One populated message of each of the 17 payload wire types, shared by the
/// round-trip, fingerprint and field-corruption tests.
struct Samples {
  proto::ClientRequestMsg request;
  proto::AckMsg ack;
  proto::DatablockMsg datablock{proto::Datablock{}};
  proto::ReadyMsg ready;
  proto::BftBlockMsg bft_block{proto::BftBlock{}, crypto::SignatureShare{}};
  proto::VoteMsg vote;
  proto::ProofMsg proof;
  proto::QueryMsg query;
  proto::ChunkResponseMsg chunk;
  proto::CheckpointMsg checkpoint;
  proto::TimeoutMsg timeout;
  proto::ViewChangeMsg view_change;
  proto::NewViewMsg new_view;
  proto::BaselineBlockMsg baseline_block;
  proto::BaselineVoteMsg baseline_vote;
  proto::StateOfferMsg state_offer;
  proto::StateChunkMsg state_chunk;
};

Samples samples() {
  Samples s;
  s.request.requests = {request_of(9, 0, true), request_of(9, 1, false)};  // real, synthetic
  s.ack.client_id = 42;
  s.ack.seqs = {1, 2, 3, 100};
  proto::Datablock db;
  db.maker = 3;
  db.counter = 17;
  db.requests = {request_of(5, 0, true), request_of(5, 1, true)};
  s.datablock = proto::DatablockMsg(std::move(db));
  s.ready.datablock_hashes = {digest_of(1), digest_of(2)};
  proto::BftBlock block;
  block.view = 2;
  block.sn = 99;
  block.links = {digest_of(7), digest_of(8), digest_of(9)};
  s.bft_block = proto::BftBlockMsg(std::move(block), share_of(1, 0xAB));
  s.vote.round = 2;
  s.vote.block_digest = digest_of(0x33);
  s.vote.share = share_of(5, 0x44);
  s.proof.round = 1;
  s.proof.block_digest = digest_of(0x55);
  s.proof.signature = tsig_of(0x66);
  s.query.missing = {digest_of(0x10)};
  s.chunk.datablock_hash = digest_of(0x21);
  s.chunk.merkle_root = digest_of(0x22);
  s.chunk.chunk_index = 3;
  s.chunk.leaf_count = 8;
  s.chunk.chunk = {1, 2, 3, 4, 5};
  s.chunk.chunk_size = 5;
  s.chunk.proof = {digest_of(0x23), digest_of(0x24), digest_of(0x25)};
  s.checkpoint.sn = 50;
  s.checkpoint.state = digest_of(0x71);
  s.checkpoint.share = share_of(2, 0x72);
  s.timeout.view = 4;
  s.timeout.share = share_of(0, 0x81);
  auto& vc = s.view_change;
  vc.new_view = 5;
  vc.checkpoint_sn = 20;
  vc.checkpoint_state = digest_of(0x91);
  vc.checkpoint_proof = tsig_of(0x92);
  proto::NotarizedBlock nb;
  nb.block.view = 4;
  nb.block.sn = 21;
  nb.block.links = {digest_of(0x93)};
  nb.notarization = tsig_of(0x94);
  vc.notarized.push_back(nb);
  vc.sender_sig = share_of(3, 0x95);
  vc.sender = 3;
  s.new_view.new_view = 5;
  s.new_view.view_changes.push_back(vc);
  s.new_view.leader_sig = share_of(1, 0x96);
  auto& bb = s.baseline_block;
  bb.view = 1;
  bb.height = 12;
  bb.parent = digest_of(0xA1);
  bb.justify_target = digest_of(0xA2);
  bb.justify_sig = tsig_of(0xA3);
  bb.batch.push_back(request_of(7, 0, true));
  bb.cached_digest = bb.compute_digest();  // as both proposers do
  s.baseline_vote.phase = 2;
  s.baseline_vote.view = 1;
  s.baseline_vote.height = 12;
  s.baseline_vote.block_digest = bb.cached_digest;
  s.baseline_vote.share = share_of(2, 0xA4);
  s.state_offer.kind = proto::StateOfferMsg::kOffer;
  s.state_offer.transfer_id = 0xABCD1234u;
  s.state_offer.from_index = 17;
  s.state_offer.until_index = 42;
  s.state_offer.exec_digest = digest_of(0x5A);
  s.state_chunk.transfer_id = 99;
  s.state_chunk.from_index = 3;
  s.state_chunk.until_index = 9;
  s.state_chunk.exec_digest = digest_of(0xC3);
  s.state_chunk.chunk_index = 2;
  s.state_chunk.data_shards = 2;
  s.state_chunk.total_shards = 4;
  s.state_chunk.chunk = {1, 2, 3, 4, 5};
  return s;
}

}  // namespace

TEST(Wire, ClientRequestRoundTrip) {
  const auto msg = samples().request;
  const auto decoded = round_trip_as(msg);
  ASSERT_EQ(decoded->requests.size(), 2u);
  EXPECT_EQ(decoded->requests[0].payload, msg.requests[0].payload);
  EXPECT_EQ(decoded->requests[1].payload_size, 48u);
  EXPECT_TRUE(decoded->requests[1].payload.empty());
  // Sim-only metadata is re-stamped with the receiver's clock.
  EXPECT_EQ(decoded->requests[0].submitted_at, 777);
  // Identity-bearing fields survive exactly: digests match.
  EXPECT_EQ(decoded->requests[0].digest(), msg.requests[0].digest());
}

TEST(Wire, AckRoundTrip) {
  const auto msg = samples().ack;
  const auto decoded = round_trip_as(msg);
  EXPECT_EQ(decoded->client_id, 42u);
  EXPECT_EQ(decoded->seqs, msg.seqs);
}

TEST(Wire, DatablockRoundTripRecomputesDigest) {
  const auto msg = samples().datablock;
  const auto decoded = round_trip_as(msg);
  EXPECT_EQ(decoded->datablock.maker, 3u);
  EXPECT_EQ(decoded->datablock.counter, 17u);
  EXPECT_EQ(decoded->cached_digest, msg.cached_digest);  // recomputed, not relayed
  EXPECT_EQ(decoded->created_at, 777);                   // receiver-stamped
}

TEST(Wire, ReadyRoundTrip) {
  const auto msg = samples().ready;
  const auto decoded = round_trip_as(msg);
  EXPECT_EQ(decoded->datablock_hashes, msg.datablock_hashes);
}

TEST(Wire, BftBlockRoundTrip) {
  const auto msg = samples().bft_block;
  const auto decoded = round_trip_as(msg);
  EXPECT_EQ(decoded->block.sn, 99u);
  EXPECT_EQ(decoded->block.links.size(), 3u);
  EXPECT_EQ(decoded->leader_share, msg.leader_share);
  EXPECT_EQ(decoded->cached_digest, msg.cached_digest);
}

TEST(Wire, VoteAndProofRoundTrip) {
  const auto s = samples();
  const auto v = round_trip_as(s.vote);
  EXPECT_EQ(v->round, 2);
  EXPECT_EQ(v->share, s.vote.share);

  const auto p = round_trip_as(s.proof);
  EXPECT_EQ(p->signature, s.proof.signature);
}

TEST(Wire, QueryAndChunkResponseRoundTrip) {
  const auto s = samples();
  round_trip_as(s.query);

  const auto c = round_trip_as(s.chunk);
  EXPECT_EQ(c->chunk, s.chunk.chunk);
  EXPECT_EQ(c->proof, s.chunk.proof);
  EXPECT_EQ(c->leaf_count, 8u);
}

TEST(Wire, CheckpointRoundTripBothForms) {
  const auto vote = samples().checkpoint;
  const auto v = round_trip_as(vote);
  ASSERT_TRUE(v->share.has_value());
  EXPECT_FALSE(v->signature.has_value());
  EXPECT_EQ(*v->share, *vote.share);

  auto proof = vote;
  proof.share.reset();
  proof.signature = tsig_of(0x73);
  const auto p = round_trip_as(proof);
  EXPECT_FALSE(p->share.has_value());
  ASSERT_TRUE(p->signature.has_value());
}

TEST(Wire, TimeoutViewChangeNewViewRoundTrip) {
  const auto s = samples();
  round_trip_as(s.timeout);

  const auto v = round_trip_as(s.view_change);
  ASSERT_EQ(v->notarized.size(), 1u);
  EXPECT_EQ(v->notarized[0].block.sn, 21u);
  EXPECT_EQ(v->sender, 3u);

  const auto n = round_trip_as(s.new_view);
  ASSERT_EQ(n->view_changes.size(), 1u);
  EXPECT_EQ(n->view_changes[0].checkpoint_sn, 20u);
}

TEST(Wire, BaselineMessagesRoundTrip) {
  const auto s = samples();
  const auto b = round_trip_as(s.baseline_block);
  EXPECT_EQ(b->cached_digest, s.baseline_block.cached_digest);  // recomputed on decode
  EXPECT_EQ(b->batch.size(), 1u);

  const auto v = round_trip_as(s.baseline_vote);
  EXPECT_EQ(v->phase, 2);
  EXPECT_EQ(v->height, 12u);
}

namespace {

/// A sample and a copy of it that differs in exactly one wired field.
struct FieldEdit {
  std::string field;
  sim::PayloadPtr base;
  sim::PayloadPtr edited;
};

template <typename T, typename Edit>
FieldEdit field_edit(std::string field, const T& base, Edit edit) {
  T copy = base;
  edit(copy);
  return {std::move(field), std::make_shared<const T>(base),
          std::make_shared<const T>(std::move(copy))};
}

/// At least one edit per wire type, certificate fields, a baseline block's
/// parent and request payload bytes among them.
std::vector<FieldEdit> one_edit_per_wire_type() {
  const auto s = samples();
  return {
      field_edit("ClientRequestMsg payload byte", s.request,
                 [](auto& m) { m.requests[0].payload[7] ^= 1; }),
      field_edit("AckMsg::client_id", s.ack, [](auto& m) { m.client_id = 43; }),
      field_edit("DatablockMsg request payload byte", s.datablock,
                 [](auto& m) {
                   m.datablock.requests[0].payload[0] ^= 1;
                   m.cached_digest = m.datablock.digest();
                 }),
      field_edit("ReadyMsg hash", s.ready, [](auto& m) { m.datablock_hashes[1] = digest_of(3); }),
      field_edit("BftBlockMsg::leader_share", s.bft_block,
                 [](auto& m) { m.leader_share.bytes[0] ^= 1; }),
      field_edit("VoteMsg share signer", s.vote, [](auto& m) { m.share.signer = 6; }),
      field_edit("ProofMsg::signature", s.proof, [](auto& m) { m.signature.bytes[5] ^= 1; }),
      field_edit("QueryMsg::missing", s.query, [](auto& m) { m.missing[0] = digest_of(0x11); }),
      field_edit("ChunkResponseMsg::proof", s.chunk, [](auto& m) { m.proof[1] = digest_of(0x26); }),
      field_edit("CheckpointMsg share signer", s.checkpoint, [](auto& m) { m.share->signer = 3; }),
      field_edit("TimeoutMsg::view", s.timeout, [](auto& m) { m.view = 5; }),
      field_edit("ViewChangeMsg::checkpoint_proof", s.view_change,
                 [](auto& m) { m.checkpoint_proof.bytes[0] ^= 1; }),
      field_edit("NewViewMsg inner checkpoint_state", s.new_view,
                 [](auto& m) { m.view_changes[0].checkpoint_state = digest_of(0x97); }),
      field_edit("BaselineBlockMsg::parent", s.baseline_block,
                 [](auto& m) { m.parent = digest_of(0xB1); }),
      field_edit("BaselineBlockMsg::justify_target", s.baseline_block,
                 [](auto& m) { m.justify_target = digest_of(0xB2); }),
      field_edit("BaselineBlockMsg::view", s.baseline_block, [](auto& m) { m.view = 2; }),
      field_edit("BaselineVoteMsg::view", s.baseline_vote, [](auto& m) { m.view = 2; }),
      field_edit("StateOfferMsg::transfer_id", s.state_offer, [](auto& m) { m.transfer_id = 10; }),
      field_edit("StateChunkMsg::chunk", s.state_chunk, [](auto& m) { m.chunk[2] ^= 1; }),
  };
}

}  // namespace

TEST(Wire, FingerprintSeesEveryWiredField) {
  // The trace fingerprint is the digest of the wire frame, so two messages
  // that differ in any field a peer can send must fingerprint differently.
  std::set<net::MsgType> types;
  for (const auto& e : one_edit_per_wire_type()) {
    const auto type = net::type_of(*e.base);
    ASSERT_TRUE(type.has_value()) << e.field;
    types.insert(*type);
    EXPECT_NE(protocol::payload_fingerprint(*e.base), protocol::payload_fingerprint(*e.edited))
        << e.field;
    // Sim-only metadata is not content: a decoded copy fingerprints alike.
    EXPECT_EQ(protocol::payload_fingerprint(*round_trip(*e.base)),
              protocol::payload_fingerprint(*e.base))
        << e.field;
  }
  EXPECT_EQ(types.size(), 17u) << "every payload wire type must be sampled";
}

TEST(Wire, FieldCorruptionDeliversADecodedOneBitFlipOrNothing) {
  // kFieldCorruption through the mutator's public API, on a one-step trace
  // of each wire type: some flip must decode to a different message of the
  // same type, and a flip that does not decode must leave the step
  // delivered and unchanged.
  std::set<net::MsgType> seen;
  std::size_t undecodable = 0;
  for (const auto& e : one_edit_per_wire_type()) {
    const auto type = *net::type_of(*e.base);
    if (!seen.insert(type).second) continue;
    protocol::TraceStep original;
    original.at = 5 * sim::kMillisecond;
    if (type == net::MsgType::kClientRequest) {
      original.event = protocol::ClientRequest{
          7, std::static_pointer_cast<const proto::ClientRequestMsg>(e.base)};
    } else {
      original.event = protocol::MessageIn{7, e.base};
    }

    bool changed = false;
    for (std::uint64_t param = 0; param < 64; ++param) {
      chaos::MutationPlan plan;
      plan.ops.push_back({chaos::MutationClass::kFieldCorruption, 0, param});
      auto filter = chaos::TraceMutator(/*sweep_seed=*/1, /*n_replicas=*/4).make_filter(plan);
      protocol::TraceStep step = original;
      ASSERT_TRUE(filter(step)) << e.field << ": corruption must never drop";
      EXPECT_EQ(step.at, original.at);
      protocol::NodeId from = 0;
      sim::PayloadPtr delivered;
      if (const auto* cr = std::get_if<protocol::ClientRequest>(&step.event)) {
        from = cr->from;
        delivered = cr->request;
      } else if (const auto* in = std::get_if<protocol::MessageIn>(&step.event)) {
        from = in->from;
        delivered = in->payload;
      }
      EXPECT_EQ(from, 7u);
      if (delivered == e.base) {
        ++undecodable;  // a no-op: the step is exactly the original
        continue;
      }
      ASSERT_NE(delivered, nullptr);
      EXPECT_EQ(net::type_of(*delivered), type) << e.field << " param " << param;
      changed |= protocol::payload_fingerprint(*delivered) != protocol::payload_fingerprint(*e.base);
    }
    EXPECT_TRUE(changed) << e.field << ": no flip reached the message's content";
  }
  EXPECT_EQ(seen.size(), 17u);
  EXPECT_GT(undecodable, 0u) << "a flip of a count field must fail to decode";
}

TEST(Wire, HelloRoundTripAndBadMagic) {
  const auto frame = net::encode_hello_frame(net::Hello{net::Hello::kMagic, 42});
  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  ASSERT_EQ(f.type, net::MsgType::kHello);
  const auto hello = net::decode_hello(f.body);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->node_id, 42u);

  // Hello with the wrong magic is rejected.
  util::Bytes bad(f.body.begin(), f.body.end());
  bad[0] ^= 0xFF;
  EXPECT_FALSE(net::decode_hello(bad).has_value());
  // Hello bodies never decode as payloads.
  EXPECT_EQ(net::decode_payload(net::MsgType::kHello, f.body, 0), nullptr);
}

// ---------------------------------------------------------------------------
// Malformed input rejection
// ---------------------------------------------------------------------------

TEST(Wire, UnknownTagIsRejected) {
  proto::AckMsg msg;
  msg.client_id = 1;
  auto frame = net::encode_frame(msg);
  frame[net::kFrameHeaderBytes] = 0xEE;  // stomp the tag
  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(net::decode_payload(f.type, f.body, 0), nullptr);
}

TEST(Wire, TruncatedBodyIsRejected) {
  proto::ReadyMsg msg;
  msg.datablock_hashes = {digest_of(1), digest_of(2)};
  const auto frame = net::encode_frame(msg);
  // Claimed count = 2 but only one digest present.
  const std::span<const std::uint8_t> body(frame.data() + net::kFrameHeaderBytes + 1,
                                           frame.size() - net::kFrameHeaderBytes - 1 - 32);
  EXPECT_EQ(net::decode_payload(net::MsgType::kReady, body, 0), nullptr);
}

TEST(Wire, TrailingGarbageIsRejected) {
  proto::AckMsg msg;
  msg.client_id = 7;
  auto frame = net::encode_frame(msg);
  util::Bytes body(frame.begin() + net::kFrameHeaderBytes + 1, frame.end());
  body.push_back(0x5A);  // longer than the declared encoding
  EXPECT_EQ(net::decode_payload(net::MsgType::kAck, body, 0), nullptr);
}

TEST(Wire, HostileCountFieldIsRejectedWithoutAllocating) {
  // A Ready frame claiming 2^31 digests in a 40-byte body.
  util::ByteWriter w;
  w.u32(0x80000000u);
  w.raw(digest_of(1).bytes());
  EXPECT_EQ(net::decode_payload(net::MsgType::kReady, w.bytes(), 0), nullptr);

  // A BftBlock frame claiming 2^32-1 links in a tiny body (exercises the
  // bound inside proto::BftBlock::decode, reached via kBftBlock frames).
  util::ByteWriter b;
  b.u32(1);           // view
  b.u64(9);           // sn
  b.u32(0xFFFFFFFFu); // links count
  b.raw(digest_of(2).bytes());
  EXPECT_EQ(net::decode_payload(net::MsgType::kBftBlock, b.bytes(), 0), nullptr);
}

TEST(Wire, OversizedFrameHeaderIsAStickyError) {
  net::FrameReader reader(/*max_frame=*/1024);
  util::ByteWriter w;
  w.u32(2048);  // over the limit
  w.u8(static_cast<std::uint8_t>(net::MsgType::kAck));
  reader.feed(w.bytes());
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
  EXPECT_TRUE(reader.errored());
  // Sticky: more bytes do not clear the desync.
  reader.feed(net::encode_frame(proto::AckMsg{}));
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
}

TEST(Wire, ZeroLengthFrameIsAnError) {
  net::FrameReader reader;
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  reader.feed(zeros);
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
}

// ---------------------------------------------------------------------------
// Partial-read reassembly
// ---------------------------------------------------------------------------

TEST(Wire, ReassemblesFramesFedOneByteAtATime) {
  proto::QueryMsg query;
  query.missing = {digest_of(0xC1), digest_of(0xC2)};
  const auto frame = net::encode_frame(query);

  net::FrameReader reader;
  net::FrameReader::Frame f;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(reader.next(f), net::FrameReader::Status::kNeedMore) << "byte " << i;
    reader.feed({frame.data() + i, 1});
  }
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  const auto decoded =
      std::dynamic_pointer_cast<const proto::QueryMsg>(net::decode_payload(f.type, f.body, 0));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->missing, query.missing);
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kNeedMore);
}

TEST(Wire, DrainsMultipleFramesFromOneFeed) {
  util::Bytes stream;
  for (std::uint64_t i = 0; i < 5; ++i) {
    proto::AckMsg msg;
    msg.client_id = i;
    msg.seqs = {i};
    net::encode_frame(msg, stream);
  }
  // Split the stream at an arbitrary frame-straddling point.
  net::FrameReader reader;
  reader.feed({stream.data(), stream.size() / 2 + 3});
  reader.feed({stream.data() + stream.size() / 2 + 3, stream.size() - stream.size() / 2 - 3});

  for (std::uint64_t i = 0; i < 5; ++i) {
    net::FrameReader::Frame f;
    ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame) << "frame " << i;
    const auto decoded =
        std::dynamic_pointer_cast<const proto::AckMsg>(net::decode_payload(f.type, f.body, 0));
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->client_id, i);  // FIFO frame order
  }
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, StateOfferRoundTripAllKinds) {
  for (const auto kind : {proto::StateOfferMsg::kProbe, proto::StateOfferMsg::kOffer,
                          proto::StateOfferMsg::kPull}) {
    auto msg = samples().state_offer;
    msg.kind = kind;
    const auto decoded = round_trip_as(msg);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->transfer_id, msg.transfer_id);
    EXPECT_EQ(decoded->from_index, 17u);
    EXPECT_EQ(decoded->until_index, 42u);
    EXPECT_EQ(decoded->exec_digest, msg.exec_digest);
  }
}

TEST(Wire, StateOfferUnknownKindIsRejected) {
  proto::StateOfferMsg msg;
  msg.kind = 7;  // not a Kind
  const auto frame = net::encode_frame(msg);
  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(net::decode_payload(f.type, f.body, 0), nullptr);
}

TEST(Wire, StateChunkRoundTrip) {
  const auto msg = samples().state_chunk;
  const auto decoded = round_trip_as(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->transfer_id, 99u);
  EXPECT_EQ(decoded->from_index, 3u);
  EXPECT_EQ(decoded->until_index, 9u);
  EXPECT_EQ(decoded->exec_digest, msg.exec_digest);
  EXPECT_EQ(decoded->chunk_index, 2u);
  EXPECT_EQ(decoded->data_shards, 2u);
  EXPECT_EQ(decoded->total_shards, 4u);
  EXPECT_EQ(decoded->chunk, msg.chunk);
}

TEST(Wire, StateChunkTruncatedBodyIsRejected) {
  proto::StateChunkMsg msg;
  msg.chunk = {9, 9, 9};
  const auto frame = net::encode_frame(msg);
  net::FrameReader reader;
  reader.feed({frame.data(), frame.size() - 2});  // drop chunk tail
  // The reader still waits for the declared length; decode the truncated
  // body directly instead.
  const auto body = std::span<const std::uint8_t>{frame}.subspan(5, frame.size() - 7);
  EXPECT_EQ(net::decode_payload(net::MsgType::kStateChunk, body, 0), nullptr);
}

// ---------------------------------------------------------------------------
// Shard-frame envelopes (instance-id field)
// ---------------------------------------------------------------------------

TEST(Wire, ShardFrameRoundTripCarriesInstance) {
  proto::VoteMsg vote;
  vote.round = 1;
  vote.block_digest = digest_of(0xD1);
  vote.share = share_of(2, 0xD2);

  const auto frame = net::encode_frame(vote, /*instance=*/7);
  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(f.instance, 7u);
  EXPECT_EQ(f.type, net::MsgType::kVote);

  const auto decoded =
      std::dynamic_pointer_cast<const proto::VoteMsg>(net::decode_payload(f.type, f.body, 0));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->share, vote.share);
  // Canonical: re-encoding to the same instance reproduces the bytes.
  EXPECT_EQ(net::encode_frame(*decoded, 7), frame);
}

TEST(Wire, InstanceZeroIsByteCompatibleWithBareFrames) {
  proto::AckMsg msg;
  msg.client_id = 5;
  msg.seqs = {1, 2};
  // Instance 0 must emit exactly the pre-shard frame: an S=1 cluster is
  // wire-compatible with unsharded peers.
  EXPECT_EQ(net::encode_frame(msg, 0), net::encode_frame(msg));

  net::FrameReader reader;
  reader.feed(net::encode_frame(msg));
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(f.instance, 0u);  // bare frames read back as instance 0
}

TEST(Wire, HostileInstanceIdStillParses) {
  // The reader's job is framing, not policy: a well-formed envelope with an
  // absurd instance id parses cleanly (the transport drops it as unknown
  // without poisoning the connection).
  proto::AckMsg msg;
  msg.client_id = 9;
  const auto frame = net::encode_frame(msg, 0xFFFFFFFFu);
  net::FrameReader reader;
  reader.feed(frame);
  net::FrameReader::Frame f;
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(f.instance, 0xFFFFFFFFu);
  EXPECT_NE(net::decode_payload(f.type, f.body, 0), nullptr);
  // The stream stays aligned: a following bare frame still reads.
  reader.feed(net::encode_frame(msg));
  ASSERT_EQ(reader.next(f), net::FrameReader::Status::kFrame);
  EXPECT_EQ(f.instance, 0u);
}

TEST(Wire, NestedShardFrameIsAStickyError) {
  // Hand-build an envelope whose inner frame is another envelope.
  util::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(net::MsgType::kShardFrame));
  body.u32(1);                                                  // outer instance
  body.u8(static_cast<std::uint8_t>(net::MsgType::kShardFrame));  // nested tag
  body.u32(2);
  body.u8(static_cast<std::uint8_t>(net::MsgType::kAck));
  util::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.raw(body.bytes());

  net::FrameReader reader;
  reader.feed(frame.bytes());
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
  EXPECT_TRUE(reader.errored());
}

TEST(Wire, ShardWrappedHelloIsAStickyError) {
  // Hellos identify the connection, never an instance; wrapping one is a
  // protocol violation.
  const auto hello = net::encode_hello_frame(net::Hello{net::Hello::kMagic, 3});
  util::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(net::MsgType::kShardFrame));
  body.u32(1);
  // Append the hello's tag+body (skip its length header).
  body.raw(std::span<const std::uint8_t>(hello.data() + net::kFrameHeaderBytes,
                                         hello.size() - net::kFrameHeaderBytes));
  util::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.raw(body.bytes());

  net::FrameReader reader;
  reader.feed(frame.bytes());
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
}

TEST(Wire, TruncatedShardEnvelopeIsAStickyError) {
  // An envelope too short to hold instance id + inner tag.
  util::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(net::MsgType::kShardFrame));
  body.u8(0x01);
  body.u8(0x02);
  util::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.raw(body.bytes());

  net::FrameReader reader;
  reader.feed(frame.bytes());
  net::FrameReader::Frame f;
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
  // Sticky: a clean frame afterwards does not recover the stream.
  reader.feed(net::encode_frame(proto::AckMsg{}));
  EXPECT_EQ(reader.next(f), net::FrameReader::Status::kError);
}

namespace {

/// A payload type with no wire form (application-defined, kMisc bucket).
struct NoWirePayload final : sim::Payload {
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] sim::Component component() const override { return sim::Component::kMisc; }
};

}  // namespace

TEST(Wire, InPlaceEncodeAppendsExactlyTheSharedFrameBytes) {
  // encode_frame(payload, instance, out) builds tag + body directly in `out`
  // and patches the length prefix afterwards; its bytes must equal the
  // shared-frame encoder's header + body, appended after whatever `out`
  // already held, for both the bare and the kShardFrame envelope layouts.
  proto::Datablock db;
  db.maker = 2;
  db.counter = 5;
  for (std::uint64_t i = 0; i < 40; ++i) db.requests.push_back(request_of(3, i, true));
  const proto::DatablockMsg block(std::move(db));
  proto::AckMsg ack;
  ack.client_id = 11;
  ack.seqs = {4, 5};

  const util::Bytes prefix = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  for (const sim::Payload* msg : {static_cast<const sim::Payload*>(&block),
                                  static_cast<const sim::Payload*>(&ack)}) {
    for (const std::uint32_t instance : {0u, 6u}) {
      net::SharedFrame shared;
      ASSERT_TRUE(net::encode_shared_frame(*msg, instance, shared));
      util::Bytes expected = prefix;
      expected.insert(expected.end(), shared.header.begin(),
                      shared.header.begin() + shared.header_len);
      expected.insert(expected.end(), shared.body->begin(), shared.body->end());

      util::Bytes out = prefix;
      ASSERT_TRUE(net::encode_frame(*msg, instance, out));
      EXPECT_EQ(out, expected) << "instance=" << instance;

      // Reusing a cleared buffer yields the bare frame again.
      out.clear();
      ASSERT_TRUE(net::encode_frame(*msg, instance, out));
      EXPECT_EQ(out, util::Bytes(expected.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                                 expected.end()));
    }
  }
}

TEST(Wire, InPlaceEncodeOfPayloadWithoutWireFormLeavesOutUntouched) {
  const NoWirePayload msg;
  for (const std::uint32_t instance : {0u, 6u}) {
    util::Bytes out = {1, 2, 3};
    EXPECT_FALSE(net::encode_frame(msg, instance, out));
    EXPECT_EQ(out, (util::Bytes{1, 2, 3}));
  }
  net::SharedFrame shared;
  EXPECT_FALSE(net::encode_shared_frame(msg, 0, shared));
  EXPECT_FALSE(shared.valid());
}

namespace {

/// Drains `q` in `chunk`-byte slices through fill_iovecs/consume — the exact
/// shape of a sendmsg() loop under a tiny socket buffer — and returns the
/// byte stream that "hit the wire". max_iov is deliberately small so resume
/// also crosses the iovec-count cap, not just partial-write offsets.
util::Bytes drain_in_chunks(net::SendQueue& q, std::size_t chunk) {
  util::Bytes out;
  iovec iov[4];
  while (!q.empty()) {
    std::size_t total = 0;
    const auto n_iov = q.fill_iovecs(iov, 4, &total);
    EXPECT_GT(n_iov, 0u);
    EXPECT_GT(total, 0u);
    std::size_t want = std::min(chunk, total);
    std::size_t copied = 0;
    for (std::size_t i = 0; i < n_iov && copied < want; ++i) {
      const auto take = std::min(want - copied, static_cast<std::size_t>(iov[i].iov_len));
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), p, p + take);
      copied += take;
    }
    q.consume(copied);
  }
  return out;
}

net::SharedFrame shared_frame_of(const sim::Payload& msg, std::uint32_t instance) {
  net::SharedFrame f;
  EXPECT_TRUE(net::encode_shared_frame(msg, instance, f));
  return f;
}

constexpr std::size_t kNoLimit = ~std::size_t{0};

}  // namespace

TEST(SendQueue, VectoredDrainResumesAtArbitraryByteOffsets) {
  // A bare frame (4-byte header), an enveloped frame (9-byte shard header),
  // and a pre-framed from_wire blob (headerless) — every header/body layout
  // the queue can hold.
  proto::AckMsg ack;
  ack.client_id = 7;
  ack.seqs = {1, 2, 3};
  proto::QueryMsg query;
  query.missing = {digest_of(0xAB)};
  proto::AckMsg tail;
  tail.client_id = 9;

  util::Bytes expected = net::encode_frame(ack);
  util::Bytes enveloped;
  ASSERT_TRUE(net::encode_frame(query, /*instance=*/3, enveloped));
  expected.insert(expected.end(), enveloped.begin(), enveloped.end());
  const auto tail_wire = net::encode_frame(tail);
  expected.insert(expected.end(), tail_wire.begin(), tail_wire.end());

  // 1, 2 (splits the u32 header), 3, 5 (straddles header/body), 4096 (whole
  // queue in one gulp): the wire bytes must be identical regardless.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{5}, std::size_t{4096}}) {
    net::SendQueue q;
    EXPECT_TRUE(q.push(shared_frame_of(ack, 0), kNoLimit).queued);
    EXPECT_TRUE(q.push(shared_frame_of(query, 3), kNoLimit).queued);
    EXPECT_TRUE(q.push(net::SharedFrame::from_wire(tail_wire), kNoLimit).queued);
    EXPECT_EQ(q.bytes(), expected.size());

    EXPECT_EQ(drain_in_chunks(q, chunk), expected) << "chunk=" << chunk;
    EXPECT_EQ(q.bytes(), 0u);
    EXPECT_EQ(q.offset(), 0u);
  }
}

TEST(SendQueue, ConsumeReportsCompletedFramesAcrossBoundaries) {
  proto::AckMsg a;
  a.client_id = 1;
  net::SendQueue q;
  const auto wire = net::encode_frame(a);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.push(net::SharedFrame::from_wire(wire), kNoLimit).queued);
  }
  // One byte short of two frames: one completion, offset mid-second-frame.
  EXPECT_EQ(q.consume(2 * wire.size() - 1), 1u);
  EXPECT_EQ(q.frames(), 2u);
  EXPECT_EQ(q.offset(), wire.size() - 1);
  // The rest: the partial second frame and the whole third complete.
  EXPECT_EQ(q.consume(wire.size() + 1), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(SendQueue, ShedsOldestFirstButPinsPartiallyWrittenFront) {
  proto::AckMsg a;
  a.seqs = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto wire = net::encode_frame(a);
  const auto limit = 3 * wire.size();

  net::SendQueue q;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.push(net::SharedFrame::from_wire(wire), limit).queued);
  }
  // Partially write the front: it is now pinned (must leave the wire whole).
  EXPECT_EQ(q.consume(1), 0u);
  EXPECT_EQ(q.offset(), 1u);

  // Push under pressure: the two unpinned frames shed, the pinned front and
  // the new frame stay.
  const auto r = q.push(net::SharedFrame::from_wire(wire), limit - wire.size());
  EXPECT_TRUE(r.queued);
  EXPECT_EQ(r.shed, 2u);
  EXPECT_EQ(q.frames(), 2u);
  EXPECT_EQ(q.offset(), 1u) << "shedding must not disturb the written prefix";

  // A frame that cannot fit even after shedding everything unpinned is
  // rejected without purging the queue.
  net::SendQueue q2;
  EXPECT_TRUE(q2.push(net::SharedFrame::from_wire(wire), limit).queued);
  const auto r2 = q2.push(net::SharedFrame::from_wire(wire), wire.size() - 1);
  EXPECT_FALSE(r2.queued);
  EXPECT_EQ(q2.frames(), 1u) << "rejecting the new frame must not purge older ones";
}

TEST(SendQueue, SharedBodyAliasingSurvivesSheddingInAnotherQueue) {
  // Broadcast shape: one serialization, the same refcounted body on two peer
  // queues. Shedding it from one queue must not perturb the other's copy.
  proto::QueryMsg query;
  query.missing = {digest_of(0x5E)};
  const auto frame = shared_frame_of(query, 0);
  ASSERT_TRUE(frame.valid());
  const long base_refs = frame.body.use_count();

  net::SendQueue q1, q2;
  EXPECT_TRUE(q1.push(frame, kNoLimit).queued);  // copies alias, not bytes
  EXPECT_TRUE(q2.push(frame, kNoLimit).queued);
  EXPECT_EQ(frame.body.use_count(), base_refs + 2);

  // Force q1 to shed its copy; q2 still drains the exact wire bytes.
  proto::AckMsg big;
  big.seqs.assign(64, 1);
  const auto big_frame = shared_frame_of(big, 0);
  ASSERT_GT(big_frame.wire_size(), frame.wire_size());
  // Limit fits the big frame alone: the queued query frame must shed.
  EXPECT_EQ(q1.push(big_frame, big_frame.wire_size()).shed, 1u);
  EXPECT_EQ(frame.body.use_count(), base_refs + 1);

  util::Bytes expected = net::encode_frame(query);
  EXPECT_EQ(drain_in_chunks(q2, 4096), expected);
  EXPECT_EQ(frame.body.use_count(), base_refs);
}

TEST(SendQueue, AccountsAndLimitsOnFullWireSize) {
  // Regression: shedding used to budget body bytes only, so an enveloped
  // frame occupied 9 bytes more than the limit accounted for and
  // peer_buffer_limit under-counted real wire bytes.
  proto::QueryMsg query;
  query.missing = {digest_of(0x11)};
  const auto enveloped = shared_frame_of(query, /*instance=*/3);
  ASSERT_EQ(enveloped.header_len, 9u);

  util::Bytes wire;
  ASSERT_TRUE(net::encode_frame(query, 3, wire));
  EXPECT_EQ(enveloped.wire_size(), wire.size());

  net::SendQueue q;
  // One byte under the full wire size: rejected (a body-only budget would
  // have accepted it).
  EXPECT_FALSE(q.push(enveloped, enveloped.wire_size() - 1).queued);
  EXPECT_TRUE(q.push(enveloped, enveloped.wire_size()).queued);
  EXPECT_EQ(q.bytes(), wire.size());
}

TEST(Wire, WriteBufferCommitReassemblesOneByteAtATime) {
  // The recv()-in-place path: bytes land in write_buffer() spans and only
  // commit() publishes them. Mixed bare + shard-enveloped stream, committed
  // one byte at a time — the harshest compaction/resize schedule.
  proto::AckMsg ack;
  ack.client_id = 3;
  ack.seqs = {4, 5};
  proto::QueryMsg query;
  query.missing = {digest_of(0x2F), digest_of(0x30)};

  util::Bytes stream = net::encode_frame(ack);
  util::Bytes enveloped;
  ASSERT_TRUE(net::encode_frame(query, /*instance=*/2, enveloped));
  stream.insert(stream.end(), enveloped.begin(), enveloped.end());

  net::FrameReader reader;
  net::FrameReader::Frame f;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto dst = reader.write_buffer(1);
    ASSERT_GE(dst.size(), 1u);
    dst[0] = stream[i];
    reader.commit(1);
    while (reader.next(f) == net::FrameReader::Status::kFrame) {
      if (delivered == 0) {
        EXPECT_EQ(f.instance, 0u);
        const auto d = std::dynamic_pointer_cast<const proto::AckMsg>(
            net::decode_payload(f.type, f.body, 0));
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->client_id, ack.client_id);
      } else {
        EXPECT_EQ(f.instance, 2u);
        const auto d = std::dynamic_pointer_cast<const proto::QueryMsg>(
            net::decode_payload(f.type, f.body, 0));
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->missing, query.missing);
      }
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(reader.buffered(), 0u);

  // A span larger than requested may be handed out; committing less than the
  // span (a short recv) must only publish the committed prefix.
  net::FrameReader r2;
  const auto big = r2.write_buffer(1024);
  ASSERT_GE(big.size(), 1024u);
  const auto one = net::encode_frame(ack);
  std::copy(one.begin(), one.end(), big.begin());
  r2.commit(3);  // short read: header not even complete
  EXPECT_EQ(r2.next(f), net::FrameReader::Status::kNeedMore);
  EXPECT_EQ(r2.buffered(), 3u);
}

TEST(Manifest, RejectsDuplicateAddress) {
  const char* text =
      "protocol leopard\n"
      "n 2\n"
      "node 0 127.0.0.1:7000\n"
      "node 1 127.0.0.1:7000\n";
  EXPECT_THROW((void)net::Manifest::parse(text), util::ContractViolation);
}

TEST(Manifest, DuplicateAddressDiagnosticNamesBothNodes) {
  const char* text =
      "protocol leopard\n"
      "n 3\n"
      "node 0 127.0.0.1:7000\n"
      "node 1 127.0.0.1:7001\n"
      "node 2 127.0.0.1:7000\n";
  try {
    (void)net::Manifest::parse(text);
    FAIL() << "duplicate address must be rejected";
  } catch (const util::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1:7000"), std::string::npos) << what;
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
  }
}

TEST(Manifest, DistinctAddressesStillParse) {
  const char* text =
      "protocol leopard\n"
      "n 2\n"
      "node 0 127.0.0.1:7000\n"
      "node 1 127.0.0.2:7000\n";  // same port, different host: fine
  const auto m = net::Manifest::parse(text);
  EXPECT_EQ(m.nodes.at(0).port, m.nodes.at(1).port);
}
