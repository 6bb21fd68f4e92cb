// Canonical wire framing for the socket transport (the real-network twin of
// sim::Payload): every proto message serializes to a length-prefixed,
// type-tagged frame over the same ByteWriter/ByteReader machinery that
// already defines the canonical digest encodings.
//
// Frame layout (all integers little-endian):
//
//   u32 length   — byte count of everything after this field (tag + body)
//   u8  type     — MsgType tag
//   body         — message-specific encoding (length - 1 bytes)
//
// Hard limits and error recovery: a frame whose `length` exceeds the
// configured maximum, carries an unknown tag, or whose body fails to decode
// is rejected without crashing — FrameReader turns stream desync into a
// sticky error the connection layer answers by dropping the connection
// (reconnect re-synchronizes at a frame boundary). Decoding never throws;
// malformed bodies yield nullptr.
//
// Simulation-only metadata (Request::submitted_at, DatablockMsg::created_at)
// is NOT carried on the wire: decoders stamp it with the receiver's local
// clock so per-replica latency breakdowns stay monotonic without assuming
// synchronized clocks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/send_queue.hpp"
#include "proto/messages.hpp"
#include "sim/message.hpp"
#include "util/bytes.hpp"

namespace leopard::net {

/// Frame type tags. Stable wire values: append only, never renumber.
enum class MsgType : std::uint8_t {
  kHello = 1,  // connection handshake (wire::Hello, not a sim::Payload)
  kClientRequest = 2,
  kAck = 3,
  kDatablock = 4,
  kReady = 5,
  kBftBlock = 6,
  kVote = 7,
  kProof = 8,
  kQuery = 9,
  kChunkResponse = 10,
  kCheckpoint = 11,
  kTimeout = 12,
  kViewChange = 13,
  kNewView = 14,
  kBaselineBlock = 15,
  kBaselineVote = 16,
  kStateOffer = 17,
  kStateChunk = 18,
  // Sharding wrapper: u32 instance id + one complete inner frame body
  // (u8 inner type + inner body). Instance 0 is never wrapped — a
  // single-instance cluster emits byte-identical pre-shard frames — so the
  // tag only appears on the wire between shard-aware nodes.
  kShardFrame = 19,
};

/// Default ceiling on `length` (tag + body). A Leopard datablock of 4000
/// 1 KiB requests is ~4 MiB; 64 MiB leaves an order of magnitude of headroom
/// while still rejecting garbage headers immediately.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// Size of the fixed frame header (the u32 length field).
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Connection handshake, sent exactly once by the dialing/connecting side as
/// the first frame. Identifies the peer for the lifetime of the connection.
struct Hello {
  static constexpr std::uint32_t kMagic = 0x314F454Cu;  // "LEO1"
  std::uint32_t magic = kMagic;
  sim::NodeId node_id = 0;

  friend bool operator==(const Hello&, const Hello&) = default;
};

/// Tag for a payload's dynamic type; nullopt for payload types that have no
/// wire form (every proto message has one; the simulator's
/// protocol::ShardEnvelope and application-defined kMisc payloads do not).
[[nodiscard]] std::optional<MsgType> type_of(const sim::Payload& payload);

/// Serializes `payload` as one complete frame (header + tag + body) appended
/// to `out`. Returns false (appending nothing) if the payload type is
/// unknown.
bool encode_frame(const sim::Payload& payload, util::Bytes& out);

/// As above, addressed to a protocol instance: instance 0 emits the bare
/// (pre-shard, byte-compatible) frame; any other instance wraps the frame in
/// a kShardFrame envelope carrying the instance id. Encodes in place, in
/// one pass: a cleared, reused `out` serializes with no allocation.
bool encode_frame(const sim::Payload& payload, std::uint32_t instance, util::Bytes& out);

/// Convenience: a freshly allocated frame for `payload`.
[[nodiscard]] util::Bytes encode_frame(const sim::Payload& payload);

/// Convenience: a freshly allocated frame addressed to `instance`.
[[nodiscard]] util::Bytes encode_frame(const sim::Payload& payload, std::uint32_t instance);

/// Zero-copy serialization: the tag + body are written ONCE into a
/// refcounted buffer and the length prefix (plus shard envelope for nonzero
/// instances) lands in the SharedFrame's inline header. The resulting wire
/// bytes are identical to encode_frame's. Returns false (leaving `out`
/// invalid) if the payload type has no wire form.
bool encode_shared_frame(const sim::Payload& payload, std::uint32_t instance,
                         SharedFrame& out);

/// Serializes a Hello handshake frame.
[[nodiscard]] util::Bytes encode_hello_frame(const Hello& hello);

/// Decodes a Hello body (frame payload after the tag); nullopt if malformed
/// or the magic does not match.
[[nodiscard]] std::optional<Hello> decode_hello(std::span<const std::uint8_t> body);

/// Decodes one frame body into a fresh heap message. `local_now` stamps the
/// simulation-only metadata fields (see file comment). Returns nullptr on an
/// unknown tag or malformed body — never throws.
[[nodiscard]] sim::PayloadPtr decode_payload(MsgType type, std::span<const std::uint8_t> body,
                                             sim::SimTime local_now);

/// Incremental frame reassembly over a TCP byte stream: feed() arbitrary
/// read() chunks, then drain complete frames with next(). Tolerates frames
/// split across any number of reads and multiple frames per read.
///
/// Once a hard limit is violated (length == 0 or length > max_frame) the
/// reader enters a sticky error state: the stream has lost frame alignment
/// and nothing after the bad header can be trusted.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kDefaultMaxFrameBytes)
      : max_frame_(max_frame) {}

  enum class Status : std::uint8_t {
    kFrame,     // *out was filled with a complete frame
    kNeedMore,  // no complete frame buffered; feed() more bytes
    kError,     // stream desync (bad length); drop the connection
  };

  /// One reassembled frame. `body` points into the reader's buffer and is
  /// valid until the next feed()/next() call. kShardFrame envelopes are
  /// unwrapped here: `type`/`body` describe the inner frame and `instance`
  /// carries the envelope's instance id (0 for bare frames). A malformed
  /// envelope — truncated, nested, or wrapping a Hello — is a stream error
  /// like any bad header.
  struct Frame {
    MsgType type{};
    std::uint32_t instance = 0;
    std::span<const std::uint8_t> body;
  };

  /// Appends raw stream bytes. No-op once in the error state.
  void feed(std::span<const std::uint8_t> data);

  /// Zero-copy ingest: exposes at least `min_bytes` of writable scratch at
  /// the end of the internal buffer (compacting the consumed prefix first),
  /// so recv() can land bytes directly where next() will parse them — no
  /// intermediate read buffer, no memcpy per inbound byte. Pair with
  /// commit(): only committed bytes become part of the stream.
  [[nodiscard]] std::span<std::uint8_t> write_buffer(std::size_t min_bytes);

  /// Makes `n` bytes of the last write_buffer() span part of the stream.
  /// No-op once in the error state.
  void commit(std::size_t n);

  /// Extracts the next complete frame, if any.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] bool errored() const { return errored_; }
  /// Bytes currently buffered (tests; also a DoS guard for the caller).
  [[nodiscard]] std::size_t buffered() const { return end_ - pos_; }

 private:
  std::size_t max_frame_;
  // buf_[pos_, end_) is the unparsed stream; [end_, buf_.size()) is scratch
  // handed out by write_buffer() and not yet committed.
  util::Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::size_t end_ = 0;  // committed suffix boundary
  bool errored_ = false;
};

}  // namespace leopard::net
