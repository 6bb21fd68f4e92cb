// perfbench_layers: per-layer kernel timings at a workload's sizes, through
// the library's public API (the layer figures of the traced runs).
//
//   perfbench_layers --n N --alpha REQS --payload BYTES --seed S
//
// Times, each as the median of 5 batches of at least 12 ms:
//   crypto.sha256_ns_per_byte      SHA-256 over one datablock's wire bytes
//   crypto.share_sign_ns           one threshold-signature share, (2f+1, n)
//   crypto.share_verify_ns         verifying one share
//   crypto.combine_ns              combining 2f+1 shares
//   erasure.encode_ns_per_byte     RS(f+1, n) encode of one datablock
//   erasure.decode_ns_per_byte     decode from the last f+1 shards (parity
//                                  rows, so the full inversion path runs)
//   net.encode_ns_per_frame        wire encode of one datablock frame
//   net.decode_ns_per_frame        wire decode of the same frame
//
// Inputs come from --seed. Prints one "result {json}" line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"
#include "crypto/threshold_sig.hpp"
#include "erasure/reed_solomon.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "proto/messages.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

namespace lp = leopard;
using Clock = std::chrono::steady_clock;

constexpr double kBatchMs = 12;

/// Median over 5 batches of at least kBatchMs each, in ns per call of `fn`.
template <typename F>
double ns_per_call(F&& fn) {
  fn();  // warm caches and lazy set-up
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double spent = 0;
    do {
      fn();
      ++calls;
      spent = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    } while (spent < kBatchMs);
    batches.push_back(spent * 1e6 / static_cast<double>(calls));
  }
  return perfbench::percentile(batches, 0.5);
}

// Every timed call feeds its result here so it cannot be optimized away.
volatile std::uint64_t g_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4;
  std::uint32_t alpha = 200;
  std::uint32_t payload = 128;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--n") {
      n = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--alpha") {
      alpha = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--payload") {
      payload = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "perfbench_layers: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (n < 4 || alpha == 0 || (argc - 1) % 2 != 0) {
    std::fprintf(stderr, "usage: perfbench_layers --n N --alpha REQS --payload BYTES --seed S\n");
    return 2;
  }
  const std::uint32_t f = (n - 1) / 3;

  // One full datablock of seeded requests, as a maker would disseminate it.
  lp::util::Rng rng(seed);
  lp::proto::Datablock db;
  db.maker = 2;
  db.counter = 1;
  for (std::uint32_t i = 0; i < alpha; ++i) {
    lp::proto::Request r;
    r.client_id = 100;
    r.seq = i;
    r.payload_size = payload;
    r.payload.resize(payload);
    rng.fill(r.payload.data(), r.payload.size());
    db.requests.push_back(std::move(r));
  }
  const lp::proto::DatablockMsg msg(std::move(db));
  const lp::util::Bytes frame = lp::net::encode_frame(msg);
  const auto body = std::span<const std::uint8_t>(frame).subspan(lp::net::kFrameHeaderBytes + 1);
  const auto bytes = static_cast<double>(frame.size());

  lp::obs::JsonWriter out;
  out.object_begin().key("frame_bytes").value(static_cast<std::uint64_t>(frame.size()));

  out.key("crypto.sha256_ns_per_byte").value(ns_per_call([&] {
            g_sink = g_sink + lp::crypto::Sha256::hash(frame)[0];
          }) / bytes);

  const lp::crypto::ThresholdScheme ts(n, 2 * f + 1, seed);
  const auto digest = msg.cached_digest;
  std::vector<lp::crypto::SignatureShare> shares;
  for (std::uint32_t i = 0; i < 2 * f + 1; ++i) shares.push_back(ts.sign_share(i, digest));
  std::uint32_t signer = 0;
  out.key("crypto.share_sign_ns").value(ns_per_call([&] {
            g_sink = g_sink + ts.sign_share(signer++ % n, digest).signer;
          }));
  out.key("crypto.share_verify_ns").value(ns_per_call([&] {
            g_sink = g_sink + (ts.verify_share(digest, shares[signer++ % shares.size()]) ? 1 : 0);
          }));
  out.key("crypto.combine_ns").value(ns_per_call([&] {
            g_sink = g_sink + (ts.combine(digest, shares).has_value() ? 1 : 0);
          }));

  const lp::erasure::ReedSolomon rs(f + 1, n);
  lp::erasure::RsScratch enc_scratch;
  out.key("erasure.encode_ns_per_byte").value(ns_per_call([&] {
            g_sink = g_sink + rs.encode_into(frame, enc_scratch).width;
          }) / bytes);
  const auto encoded = rs.encode_into(frame, enc_scratch);
  std::vector<lp::erasure::ShardView> survivors;
  for (std::uint32_t i = n - (f + 1); i < n; ++i) survivors.push_back({i, encoded.shard(i)});
  lp::erasure::RsScratch dec_scratch;
  lp::util::Bytes decoded;
  const bool decode_ok = rs.decode_into(survivors, dec_scratch, decoded) && decoded == frame;
  out.key("erasure.decode_ns_per_byte").value(ns_per_call([&] {
            g_sink = g_sink + (rs.decode_into(survivors, dec_scratch, decoded) ? 1 : 0);
          }) / bytes);

  lp::util::Bytes reencoded;
  out.key("net.encode_ns_per_frame").value(ns_per_call([&] {
            reencoded.clear();
            g_sink = g_sink + (lp::net::encode_frame(msg, reencoded) ? 1 : 0);
          }));
  out.key("net.decode_ns_per_frame").value(ns_per_call([&] {
            g_sink = g_sink +
                     (lp::net::decode_payload(lp::net::MsgType::kDatablock, body, 0) ? 1 : 0);
          }));
  const auto round_trip = lp::net::decode_payload(lp::net::MsgType::kDatablock, body, 0);
  const auto* back = dynamic_cast<const lp::proto::DatablockMsg*>(round_trip.get());
  const bool codec_ok = back != nullptr && back->cached_digest == msg.cached_digest;

  const bool correct = decode_ok && codec_ok && ts.combine(digest, shares).has_value();
  out.key("correct").value(correct).object_end();
  std::printf("result %s\n", out.str().c_str());
  return correct ? 0 : 1;
}
