// Property tests for the cross-shard sequencer (src/shard/sequencer.hpp):
// the merged global stream must be a pure function of the per-shard commit
// streams — byte-identical across every arrival interleaving — with
// straggler, empty-round, duplicate-re-emission, and recovery
// (advance_to) paths all preserving that determinism.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/oracles.hpp"
#include "harness/experiment.hpp"
#include "proto/messages.hpp"
#include "shard/sequencer.hpp"
#include "shard/sim_shard.hpp"
#include "util/check.hpp"

namespace leopard {
namespace {

/// Minimal payload carrying a unique identity so emitted streams can be
/// compared record-for-record.
struct TagPayload final : sim::Payload {
  std::uint64_t tag = 0;
  explicit TagPayload(std::uint64_t t) : tag(t) {}
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] sim::Component component() const override { return sim::Component::kMisc; }
};

/// One shard-local commit record destined for Sequencer::push.
struct In {
  std::uint32_t shard;
  std::uint64_t sseq;
  std::uint32_t sordinal;
  std::uint64_t tag;  // payload identity
};

protocol::Execute make_exec(const In& in) {
  protocol::Execute exec;
  exec.block = std::make_shared<TagPayload>(in.tag);
  exec.requests = in.tag % 7 + 1;
  exec.seq = in.sseq;
  exec.ordinal = in.sordinal;
  return exec;
}

/// A shard-local commit of a stall filler: a datablock whose only request
/// comes from a filler pseudo-client.
protocol::Execute make_filler_exec(std::uint64_t sseq, std::uint32_t sordinal) {
  proto::Datablock db;
  db.counter = sseq;
  proto::Request req;
  req.client_id = shard::filler_client(0);
  req.seq = sseq;
  req.payload_size = 1;
  db.requests.push_back(req);
  protocol::Execute exec;
  exec.block = std::make_shared<proto::DatablockMsg>(std::move(db));
  exec.requests = 1;
  exec.seq = sseq;
  exec.ordinal = sordinal;
  return exec;
}

/// Flattened emitted record for equality comparison.
struct Out {
  std::uint32_t shard;
  std::uint64_t sseq;
  std::uint32_t sordinal;
  std::uint64_t gseq;
  std::uint32_t gordinal;
  std::uint64_t requests;
  std::uint64_t tag;

  friend bool operator==(const Out&, const Out&) = default;
};

Out flatten(const shard::GlobalRecord& r) {
  const auto* payload = dynamic_cast<const TagPayload*>(r.exec.block.get());
  util::expects(payload != nullptr, "test payload type");
  return Out{r.shard,          r.shard_seq,        r.shard_ordinal, r.exec.seq,
             r.exec.ordinal,   r.exec.requests,    payload->tag};
}

/// Digest fold over the emitted stream (order-sensitive).
std::uint64_t fold(std::uint64_t acc, const Out& o) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  acc = mix(acc ^ o.shard);
  acc = mix(acc ^ o.sseq);
  acc = mix(acc ^ o.sordinal);
  acc = mix(acc ^ o.gseq);
  acc = mix(acc ^ o.gordinal);
  acc = mix(acc ^ o.requests);
  acc = mix(acc ^ o.tag);
  return acc;
}

/// Feeds `inputs` (already a valid interleaving: per-shard order preserved)
/// into a fresh sequencer and returns the emitted stream.
std::vector<Out> run_merge(std::uint32_t shards, const std::vector<In>& inputs) {
  std::vector<Out> emitted;
  shard::Sequencer seq(shards,
                       [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  for (const auto& in : inputs) seq.push(in.shard, make_exec(in));
  return emitted;
}

/// Random interleaving of per-shard streams that preserves each shard's
/// internal order (the only delivery constraint the transport guarantees).
std::vector<In> interleave(const std::vector<std::vector<In>>& streams, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> next(streams.size(), 0);
  std::vector<In> out;
  for (;;) {
    std::vector<std::size_t> ready;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (next[s] < streams[s].size()) ready.push_back(s);
    }
    if (ready.empty()) break;
    const auto pick = ready[rng() % ready.size()];
    out.push_back(streams[pick][next[pick]++]);
  }
  return out;
}

/// A workload with multi-ordinal rounds, gap rounds, and uneven shard
/// speeds. Shard 0: dense, two ordinals per sn. Shard 1: gap at sn 1 and
/// sn 3. Shard 2: slow, single records.
std::vector<std::vector<In>> reference_streams() {
  std::vector<std::vector<In>> streams(3);
  std::uint64_t tag = 1;
  for (std::uint64_t q = 0; q <= 5; ++q) {
    streams[0].push_back({0, q, 0, tag++});
    streams[0].push_back({0, q, 1, tag++});
  }
  for (std::uint64_t q : {0ull, 2ull, 4ull, 5ull}) {
    streams[1].push_back({1, q, 0, tag++});
  }
  for (std::uint64_t q = 0; q <= 5; ++q) {
    streams[2].push_back({2, q, 0, tag++});
  }
  return streams;
}

TEST(Sequencer, MergeIsArrivalOrderInvariant) {
  const auto streams = reference_streams();
  const auto reference = run_merge(3, interleave(streams, 0));
  ASSERT_FALSE(reference.empty());
  std::uint64_t reference_digest = 0;
  for (const auto& o : reference) reference_digest = fold(reference_digest, o);

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto emitted = run_merge(3, interleave(streams, seed));
    EXPECT_EQ(emitted, reference) << "interleaving seed " << seed;
    std::uint64_t digest = 0;
    for (const auto& o : emitted) digest = fold(digest, o);
    EXPECT_EQ(digest, reference_digest) << "interleaving seed " << seed;
  }
}

TEST(Sequencer, GlobalCoordinatesStrictlyIncrease) {
  const auto streams = reference_streams();
  const auto emitted = run_merge(3, interleave(streams, 7));
  for (std::size_t i = 1; i < emitted.size(); ++i) {
    const auto prev = std::pair{emitted[i - 1].gseq, emitted[i - 1].gordinal};
    const auto cur = std::pair{emitted[i].gseq, emitted[i].gordinal};
    EXPECT_LT(prev, cur) << "at index " << i;
  }
  // Round-robin: within one gseq, shards appear in ascending order.
  for (std::size_t i = 1; i < emitted.size(); ++i) {
    if (emitted[i].gseq == emitted[i - 1].gseq) {
      EXPECT_LE(emitted[i - 1].shard, emitted[i].shard);
    }
  }
}

TEST(Sequencer, StragglerBlocksUntilProofThenCatchesUp) {
  std::vector<Out> emitted;
  shard::Sequencer seq(2, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });

  // Shard 0 races ahead through sn 3; shard 1 is silent.
  std::uint64_t tag = 100;
  for (std::uint64_t q = 0; q <= 3; ++q) {
    seq.push(0, make_exec({0, q, 0, tag++}));
  }
  // Round 0 of shard 0 is proven (frontier 3 > 0) and emits; the cursor
  // then parks on shard 1 with everything else buffered.
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].shard, 0u);
  EXPECT_EQ(seq.round(), 0u);
  EXPECT_EQ(seq.cursor_shard(), 1u);
  EXPECT_EQ(seq.real_pending(), 3u);

  // Shard 1 commits at sn 0: its slot fills but is not yet proven closed.
  seq.push(1, make_exec({1, 0, 0, tag++}));
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(seq.cursor_shard(), 1u);

  // Shard 1 commits at sn 1: proves round 0 closed, releasing round 1 of
  // both shards; sn 1 itself stays open (no proof beyond it yet).
  seq.push(1, make_exec({1, 1, 0, tag++}));
  ASSERT_EQ(emitted.size(), 4u);
  EXPECT_EQ(emitted[2].shard, 0u);
  EXPECT_EQ(emitted[2].gseq, 1u);
  EXPECT_EQ(emitted[3].shard, 1u);
  EXPECT_EQ(seq.round(), 1u);
  EXPECT_EQ(seq.cursor_shard(), 1u);
}

TEST(Sequencer, IdleSystemHasNoBacklog) {
  shard::Sequencer seq(4, [](const shard::GlobalRecord&) {});
  EXPECT_EQ(seq.real_pending(), 0u);
  EXPECT_FALSE(seq.stall_check().has_value());
  EXPECT_FALSE(seq.stall_check().has_value());
}

TEST(Sequencer, EmptyRoundsPassThrough) {
  // Shard 1 skips sn 1 entirely (checkpoint-adoption-style gap): round 1
  // gets an empty shard-1 slot and the merge does not stall.
  std::vector<Out> emitted;
  shard::Sequencer seq(2, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  seq.push(0, make_exec({0, 0, 0, 1}));
  seq.push(0, make_exec({0, 1, 0, 2}));
  seq.push(0, make_exec({0, 2, 0, 3}));
  seq.push(1, make_exec({1, 0, 0, 4}));
  seq.push(1, make_exec({1, 2, 0, 5}));
  seq.push(0, make_exec({0, 3, 0, 6}));
  seq.push(1, make_exec({1, 3, 0, 7}));
  // Rounds 0..2 fully merged: shard 1 contributed nothing at sn 1 yet the
  // cursor crossed (1, 1) on the strength of its sn-2 commit.
  const std::vector<std::uint64_t> tags_in_order = {1, 4, 2, 3, 5, 6};
  ASSERT_EQ(emitted.size(), tags_in_order.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].tag, tags_in_order[i]) << "at index " << i;
  }
}

TEST(Sequencer, DuplicateReemissionsAreDropped) {
  std::vector<Out> emitted;
  shard::Sequencer seq(2, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  seq.push(0, make_exec({0, 0, 0, 1}));
  seq.push(0, make_exec({0, 1, 0, 2}));
  seq.push(1, make_exec({1, 0, 0, 3}));
  seq.push(1, make_exec({1, 1, 0, 4}));
  const auto emitted_before = seq.emitted();
  ASSERT_GE(emitted_before, 2u);

  // A restarted core replays its whole stream; everything already merged
  // must be dropped without re-emission.
  seq.push(0, make_exec({0, 0, 0, 1}));
  seq.push(1, make_exec({1, 0, 0, 3}));
  EXPECT_EQ(seq.emitted(), emitted_before);
  EXPECT_EQ(seq.duplicates_dropped(), 2u);
}

TEST(Sequencer, AdvanceToResumesExactlyAfterTail) {
  const auto streams = reference_streams();
  const auto full = run_merge(3, interleave(streams, 3));
  ASSERT_GT(full.size(), 4u);

  // Recover from the durable tail at each emitted position: a fresh
  // sequencer seeded with advance_to(tail) and fed the complete shard
  // streams must emit exactly the suffix after that tail.
  for (std::size_t cut = 0; cut + 1 < full.size(); ++cut) {
    const auto& tail = full[cut];
    std::vector<Out> resumed;
    shard::Sequencer seq(3, [&](const shard::GlobalRecord& r) { resumed.push_back(flatten(r)); });
    seq.advance_to(tail.gseq, tail.gordinal);
    for (const auto& in : interleave(streams, cut)) seq.push(in.shard, make_exec(in));
    const std::vector<Out> expected(full.begin() + static_cast<std::ptrdiff_t>(cut) + 1,
                                    full.end());
    EXPECT_EQ(resumed, expected) << "tail cut at " << cut;
  }
}

TEST(Sequencer, AdvanceToBehindCursorIsNoOp) {
  std::vector<Out> emitted;
  shard::Sequencer seq(2, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  seq.push(0, make_exec({0, 0, 0, 1}));
  seq.push(0, make_exec({0, 1, 0, 2}));
  seq.push(1, make_exec({1, 0, 0, 3}));
  seq.push(1, make_exec({1, 1, 0, 4}));
  const auto round_before = seq.round();
  const auto emitted_before = emitted.size();
  seq.advance_to(0, shard::pack_ordinal(0, 0));
  EXPECT_EQ(seq.round(), round_before);
  EXPECT_EQ(emitted.size(), emitted_before);
}

/// A single-instance stream: multi-ordinal rounds and the sn gaps that
/// checkpoint adoption leaves (0, 1, 5, 6, then a long jump).
std::vector<In> one_shard_stream() {
  return {{0, 0, 0, 1},  {0, 1, 0, 2},  {0, 1, 1, 3},  {0, 1, 2, 4},  {0, 5, 0, 5},
          {0, 6, 0, 6},  {0, 6, 3, 7},  {0, 6, 4, 8},  {0, 1000, 0, 9}, {0, 1000, 1, 10}};
}

TEST(Sequencer, OneShardPassesEveryRecordThroughInsideItsPush) {
  // The daemon hosts an unsharded replica as the S = 1 case, so the merge
  // must be the identity there: same coordinates, no buffering, no backlog.
  std::vector<Out> emitted;
  shard::Sequencer seq(1, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  for (const auto& in : one_shard_stream()) {
    const auto before = emitted.size();
    ASSERT_TRUE(seq.push(0, make_exec(in))) << "sn " << in.sseq;
    ASSERT_EQ(emitted.size(), before + 1) << "sn " << in.sseq << " was not emitted in its push";
    const auto& out = emitted.back();
    EXPECT_EQ(out.tag, in.tag);
    EXPECT_EQ(out.gseq, in.sseq);
    EXPECT_EQ(out.gordinal, in.sordinal);
    EXPECT_EQ(out.requests, make_exec(in).requests);
    EXPECT_EQ(seq.real_pending(), 0u) << "after sn " << in.sseq;
  }
  EXPECT_EQ(seq.duplicates_dropped(), 0u);
}

TEST(Sequencer, OneShardAdvanceToUnshardedWalTailDropsReemissions) {
  // A WAL written by a single-instance replica holds raw (sn, ordinal)
  // coordinates; at S = 1 they read as shard 0. A restarted core replays
  // from the start: everything at or below the tail is dropped, the rest
  // passes through unchanged.
  const auto stream = one_shard_stream();
  const In& tail = stream[5];  // (6, 0)
  std::vector<Out> emitted;
  shard::Sequencer seq(1, [&](const shard::GlobalRecord& r) { emitted.push_back(flatten(r)); });
  seq.advance_to(tail.sseq, tail.sordinal);
  EXPECT_TRUE(emitted.empty());
  for (const auto& in : stream) {
    const bool replayed = std::pair{in.sseq, in.sordinal} <= std::pair{tail.sseq, tail.sordinal};
    const auto before = emitted.size();
    EXPECT_EQ(seq.push(0, make_exec(in)), !replayed) << "sn " << in.sseq;
    ASSERT_EQ(emitted.size(), before + (replayed ? 0 : 1)) << "sn " << in.sseq;
    if (!replayed) {
      EXPECT_EQ(emitted.back().gseq, in.sseq);
      EXPECT_EQ(emitted.back().gordinal, in.sordinal);
    }
    EXPECT_EQ(seq.real_pending(), 0u);
  }
  EXPECT_EQ(seq.duplicates_dropped(), 6u);
  ASSERT_EQ(emitted.size(), 4u);
  EXPECT_EQ(emitted.front().tag, 7u);
}

// ---------------------------------------------------------------------------
// The stall rule: exact real-record count, fill decision, filler request.
// ---------------------------------------------------------------------------

TEST(Sequencer, RealPendingIsExactAcrossDuplicatesAndPrune) {
  std::vector<Out> emitted;
  shard::Sequencer seq(2, [&](const shard::GlobalRecord& r) {
    if (!r.filler) emitted.push_back(flatten(r));
  });
  // Shard 0 runs ahead through sn 3; round 0 of shard 0 emits and the
  // cursor parks on silent shard 1 with sn 1..3 buffered.
  for (std::uint64_t q = 0; q <= 3; ++q) seq.push(0, make_exec({0, q, 0, 10 + q}));
  ASSERT_EQ(seq.emitted(), 1u);
  EXPECT_EQ(seq.real_pending(), 3u);

  // A duplicate re-emission is dropped and not counted; filler is held but
  // not counted.
  EXPECT_FALSE(seq.push(0, make_exec({0, 0, 0, 10})));
  EXPECT_TRUE(seq.push(0, make_filler_exec(4, 0)));
  EXPECT_EQ(seq.real_pending(), 3u);

  // A durable tail at (2, shard 1) prunes shard 0's buffered sn 1 and 2 as
  // already executed; only sn 3 stays real and pending.
  seq.advance_to(2, shard::pack_ordinal(1, 0));
  EXPECT_EQ(seq.emitted(), 1u);
  EXPECT_EQ(seq.real_pending(), 1u);

  // Shard 1 proves rounds 2..4: shard 0's sn 3 (real) and sn 4 (filler)
  // emit, and shard 1's own sn 5 record is the one real record left.
  seq.push(1, make_exec({1, 5, 0, 20}));
  EXPECT_EQ(seq.emitted(), 3u);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted.back().tag, 13u);
  EXPECT_EQ(seq.real_pending(), 1u);

  // Each shard's next commit releases the other's: one real record is
  // always the one left waiting.
  seq.push(0, make_exec({0, 6, 0, 14}));
  EXPECT_EQ(emitted.back().tag, 20u);
  EXPECT_EQ(seq.real_pending(), 1u);
  seq.push(1, make_exec({1, 7, 0, 21}));
  EXPECT_EQ(emitted.back().tag, 14u);
  EXPECT_EQ(seq.real_pending(), 1u);
}

TEST(Sequencer, FillerOnlyBacklogNeverAsksForFill) {
  shard::Sequencer seq(2, [](const shard::GlobalRecord&) {});
  // Filler commits one round ahead of a parked cursor, as a no-op lands.
  for (std::uint64_t q = 0; q <= 3; ++q) seq.push(0, make_filler_exec(q, 0));
  EXPECT_EQ(seq.emitted(), 1u);
  EXPECT_EQ(seq.cursor_shard(), 1u);
  EXPECT_EQ(seq.real_pending(), 0u);
  for (int check = 0; check < 5; ++check) {
    EXPECT_FALSE(seq.stall_check().has_value()) << "check " << check;
  }
  EXPECT_EQ(seq.noops_injected(), 0u);
}

TEST(Sequencer, BlockedMergeAsksForCursorShardOncePerIdleCheck) {
  shard::Sequencer seq(3, [](const shard::GlobalRecord&) {});
  // Shards 1 and 2 commit; shard 0 is idle, so the cursor parks on it.
  for (std::uint64_t q = 0; q <= 2; ++q) {
    seq.push(1, make_exec({1, q, 0, 30 + q}));
    seq.push(2, make_exec({2, q, 0, 40 + q}));
  }
  EXPECT_EQ(seq.emitted(), 0u);
  EXPECT_EQ(seq.cursor_shard(), 0u);
  EXPECT_EQ(seq.real_pending(), 6u);

  // Nothing emitted since construction: every check names shard 0 once.
  EXPECT_EQ(seq.stall_check(), std::optional<std::uint32_t>{0});
  EXPECT_EQ(seq.stall_check(), std::optional<std::uint32_t>{0});

  // Shard 0's sn 0 emits but does not close its slot (no proof beyond sn
  // 0 yet): the next check saw an emit and waits; the one after that, with
  // the cursor still parked on shard 0, names it again.
  seq.push(0, make_exec({0, 0, 0, 50}));
  EXPECT_EQ(seq.emitted(), 1u);
  EXPECT_EQ(seq.cursor_shard(), 0u);
  EXPECT_EQ(seq.real_pending(), 6u);
  EXPECT_FALSE(seq.stall_check().has_value());
  EXPECT_EQ(seq.stall_check(), std::optional<std::uint32_t>{0});

  // The filler it builds comes from the replica's filler pseudo-client with
  // its own seq counter, and is what is_filler_block recognizes.
  for (std::uint64_t k = 0; k < 3; ++k) {
    const auto filler = seq.make_filler(/*phys=*/2, /*now=*/5 * sim::kMillisecond);
    ASSERT_EQ(filler->requests.size(), 1u);
    EXPECT_EQ(filler->requests[0].client_id, shard::filler_client(2));
    EXPECT_EQ(filler->requests[0].seq, k);
    EXPECT_EQ(filler->requests[0].submitted_at, 5 * sim::kMillisecond);
    proto::Datablock db;
    db.requests = filler->requests;
    EXPECT_TRUE(shard::is_filler_block(proto::DatablockMsg(std::move(db))));
  }
  EXPECT_EQ(seq.noops_injected(), 3u);
}

TEST(Sequencer, OneShardNeverAsksForFill) {
  shard::Sequencer seq(1, [](const shard::GlobalRecord&) {});
  for (const auto& in : one_shard_stream()) {
    seq.push(0, make_exec(in));
    EXPECT_EQ(seq.real_pending(), 0u) << "sn " << in.sseq;
    EXPECT_FALSE(seq.stall_check().has_value()) << "sn " << in.sseq;
    EXPECT_FALSE(seq.stall_check().has_value()) << "sn " << in.sseq;
  }
}

TEST(ShardLayout, RotationRoundTripsAndPassesClientsThrough) {
  for (const std::uint32_t n : {4u, 7u}) {
    for (std::uint32_t shards = 1; shards <= 5; ++shards) {
      std::vector<sim::NodeId> leaders;
      for (std::uint32_t s = 0; s < shards; ++s) {
        std::vector<bool> hit(n, false);
        for (sim::NodeId x = 0; x < n; ++x) {
          const auto out = shard::rotate_out(x, s, n);
          ASSERT_LT(out, n) << "n=" << n << " s=" << s << " x=" << x;
          EXPECT_EQ(out, (x + s) % n);
          EXPECT_EQ(shard::rotate_in(out, s, n), x) << "n=" << n << " s=" << s;
          EXPECT_EQ(shard::rotate_out(shard::rotate_in(x, s, n), s, n), x);
          hit[out] = true;
        }
        EXPECT_EQ(std::count(hit.begin(), hit.end(), true), static_cast<std::ptrdiff_t>(n))
            << "rotation is not a bijection on [0, n): n=" << n << " s=" << s;
        for (const sim::NodeId id :
             {sim::NodeId{n}, sim::NodeId{n + 1}, sim::NodeId{1000}, shard::kNoopClientBase,
              shard::filler_client(3)}) {
          EXPECT_EQ(shard::rotate_out(id, s, n), id) << "n=" << n << " s=" << s;
          EXPECT_EQ(shard::rotate_in(id, s, n), id) << "n=" << n << " s=" << s;
        }
        leaders.push_back(shard::rotate_out(1, s, n));
      }
      // Up to n shards put their leaders (core id 1) on distinct machines.
      std::sort(leaders.begin(), leaders.end());
      if (shards <= n) {
        EXPECT_EQ(std::unique(leaders.begin(), leaders.end()), leaders.end())
            << "n=" << n << " shards=" << shards;
      }
    }
  }
}

TEST(ShardLayout, ShardSchemesSeparateShards) {
  const auto schemes = shard::shard_schemes(4, 3, /*seed=*/9, /*shards=*/3);
  ASSERT_EQ(schemes.size(), 3u);
  // Shard 0 is the unsharded scheme; a share signed in one shard does not
  // verify in another.
  const crypto::ThresholdScheme lone(4, 3, 9);
  const auto msg = crypto::Digest::of_string("shard-domain");
  const auto share = schemes[1].sign_share(0, msg);
  EXPECT_TRUE(schemes[1].verify_share(msg, share));
  EXPECT_FALSE(schemes[0].verify_share(msg, share));
  EXPECT_FALSE(schemes[2].verify_share(msg, share));
  EXPECT_TRUE(lone.verify_share(msg, schemes[0].sign_share(0, msg)));
}

TEST(Sequencer, OrdinalPackingRoundTrips) {
  EXPECT_EQ(shard::pack_ordinal(0, 0), 0u);
  EXPECT_EQ(shard::ordinal_shard(shard::pack_ordinal(7, 123)), 7u);
  EXPECT_EQ(shard::ordinal_within(shard::pack_ordinal(7, 123)), 123u);
  EXPECT_EQ(shard::ordinal_shard(shard::pack_ordinal(shard::kMaxShards - 1,
                                                     shard::kMaxShardOrdinal)),
            shard::kMaxShards - 1);
  // Packing preserves lexicographic (shard, ordinal) order.
  EXPECT_LT(shard::pack_ordinal(1, shard::kMaxShardOrdinal), shard::pack_ordinal(2, 0));
}

TEST(Sequencer, ShardOfIsStableAndBounded) {
  for (std::uint32_t shards : {1u, 2u, 4u, 16u}) {
    std::vector<std::uint64_t> counts(shards, 0);
    for (std::uint64_t c = 0; c < 4; ++c) {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto s = shard::shard_of(c, i, shards);
        ASSERT_LT(s, shards);
        // Deterministic: same inputs, same shard.
        ASSERT_EQ(s, shard::shard_of(c, i, shards));
        ++counts[s];
      }
    }
    // Coarse balance: no shard starves (each gets at least a quarter of its
    // fair share over 4000 draws).
    for (const auto count : counts) {
      EXPECT_GE(count, 4000 / shards / 4) << "shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end sharded simulation: S unmodified Leopard cores per machine,
// rotated leaders, hash-partitioned clients, per-node merge.
// ---------------------------------------------------------------------------

/// A recorded n = 4, S = 2 experiment cluster with light batches (α = 100,
/// τ = 4) offering `offered` req/s.
harness::SimClusterConfig two_shard_cluster(double offered, std::uint64_t seed) {
  harness::ExperimentConfig ec;
  ec.n = 4;
  ec.datablock_requests = 100;
  ec.bftblock_links = 4;
  ec.offered_load = offered;
  ec.proposal_max_wait = 20 * sim::kMillisecond;
  ec.seed = seed;
  auto cfg = harness::experiment_cluster(ec);
  cfg.shards = 2;
  cfg.record = true;
  return cfg;
}

TEST(ShardedSim, TwoShardClusterCommitsOnEveryShardAndMergesConsistently) {
  harness::SimCluster cluster(two_shard_cluster(30000, 42));
  cluster.run_until(6 * sim::kSecond);

  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    const auto streams = cluster.node(i).shard_streams();
    for (std::uint32_t s = 0; s < streams.size(); ++s) {
      EXPECT_FALSE(streams[s].empty())
          << "replica " << i << " shard " << s << " committed nothing";
    }
    EXPECT_FALSE(cluster.node(i).merged().empty());
  }
  EXPECT_GT(cluster.client_acked(), 0u);
  EXPECT_FALSE(cluster.metrics().safety_violation);

  const auto oracle = cluster.check_sharded_invariants();
  EXPECT_TRUE(oracle.ok()) << oracle.summary();

  // Honest fault-free run: merged streams must agree on their common
  // prefix, and the folds over that prefix must match (the sim analogue of
  // the deployment report's merged exec_digest equality).
  const auto& a = cluster.node(0).merged();
  for (std::uint32_t i = 1; i < cluster.n(); ++i) {
    const auto& b = cluster.node(i).merged();
    const auto common = std::min(a.size(), b.size());
    ASSERT_GT(common, 0u);
    const std::vector<chaos::ExecRecord> pa(a.begin(),
                                            a.begin() + static_cast<std::ptrdiff_t>(common));
    const std::vector<chaos::ExecRecord> pb(b.begin(),
                                            b.begin() + static_cast<std::ptrdiff_t>(common));
    EXPECT_EQ(pa, pb) << "replica 0 vs replica " << i;
    EXPECT_EQ(chaos::fold_digest(pa), chaos::fold_digest(pb));
  }
}

TEST(ShardedSim, ShardedRunIsSeedDeterministic) {
  // Same seed => the same merged stream and, core by core, the same
  // recorded event/action trace on every hosted replica and client core.
  struct Run {
    std::vector<chaos::ExecRecord> merged;
    std::vector<crypto::Digest> digests;
  };
  auto run_once = [] {
    harness::SimCluster cluster(two_shard_cluster(20000, 7));
    cluster.run_until(3 * sim::kSecond);
    Run run{cluster.node(0).merged(), {}};
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (std::uint32_t i = 0; i < cluster.n(); ++i) {
        EXPECT_GT(cluster.trace(i, s).action_count(), 100u) << "replica " << i << " shard " << s;
        run.digests.push_back(cluster.trace(i, s).digest());
      }
      for (std::size_t g = 0; g < cluster.client_count(); ++g) {
        run.digests.push_back(cluster.client(g).trace(s).digest());
      }
    }
    return run;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_FALSE(first.merged.empty());
  EXPECT_EQ(first.merged, second.merged);
  ASSERT_EQ(first.digests.size(), second.digests.size());
  for (std::size_t k = 0; k < first.digests.size(); ++k) {
    EXPECT_EQ(first.digests[k], second.digests[k]) << "hosted core " << k;
  }
}

TEST(ShardedSim, ZeroShareShardOfABoundedBudgetSubmitsNothing) {
  // One request split over two shards: the shard that gets none of it must
  // not read its zero share as "unlimited".
  auto cfg = two_shard_cluster(20000, 3);
  core::ClientConfig one;
  one.request_rate = 1000;
  one.total_requests = 1;
  cfg.clients = {harness::ClientGroup{one, /*target=*/0, /*avoid=*/1, /*seed=*/17}};
  harness::SimCluster cluster(std::move(cfg));
  cluster.run_until(3 * sim::kSecond);
  EXPECT_EQ(cluster.client(0).submitted(), 1u);
  EXPECT_EQ(cluster.client(0).acked(), 1u);
  EXPECT_TRUE(cluster.client(0).done());
}

TEST(ShardedSim, IdleShardUnblocksViaNoopFill) {
  // A quiet cluster where only shard 0 receives traffic: the merge parks on
  // idle shard 1 with backlog, the stall tick injects no-op requests, and
  // the global stream eventually carries every shard-0 request — the
  // Raptr-style empty/filler slot liveness path, end to end through real
  // consensus.
  harness::ExperimentConfig ec;
  ec.n = 4;
  ec.datablock_requests = 50;
  ec.bftblock_links = 2;
  ec.proposal_max_wait = 10 * sim::kMillisecond;
  ec.seed = 11;
  auto cfg = harness::experiment_cluster(ec);
  std::get<core::LeopardConfig>(cfg.spec.config).datablock_max_wait = 20 * sim::kMillisecond;
  cfg.shards = 2;
  cfg.clients.clear();  // liveness is driven through inject_local_request
  cfg.record = true;
  harness::SimCluster cluster(std::move(cfg));

  // Nothing offered: a fully idle system must not spin no-ops.
  cluster.run_until(1 * sim::kSecond);
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.node(i).noops_injected(), 0u) << "replica " << i;
    EXPECT_TRUE(cluster.node(i).merged().empty());
  }

  // 60 requests into shard 0 only (via machine 0's local core).
  for (std::uint64_t k = 0; k < 60; ++k) {
    proto::Request req;
    req.client_id = shard::kNoopClientBase + 100;
    req.seq = k;
    req.payload_size = 16;
    cluster.node(0).inject_local_request(0, std::move(req));
  }
  cluster.run_until(12 * sim::kSecond);

  std::uint64_t total_noops = 0;
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    total_noops += cluster.node(i).noops_injected();
  }
  EXPECT_GT(total_noops, 0u) << "stall tick never fired a no-op";

  // Every shard-0 request reached the merged stream on every replica, and
  // shard 1 contributed its no-op filler commits.
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    const auto& merged = cluster.node(i).merged();
    std::uint64_t shard0_requests = 0;
    bool shard1_present = false;
    for (const auto& rec : merged) {
      if (shard::ordinal_shard(rec.ordinal) == 0) {
        shard0_requests += rec.requests;
      } else {
        shard1_present = true;
      }
    }
    EXPECT_GE(shard0_requests, 60u) << "replica " << i;
    EXPECT_TRUE(shard1_present) << "replica " << i;
  }
  const auto oracle = cluster.check_sharded_invariants();
  EXPECT_TRUE(oracle.ok()) << oracle.summary();

  // Once all real records are merged, injection quiesces: filler-only
  // backlog (a no-op commit lands one round ahead of the cursor) must NOT
  // re-arm the stall detector into a perpetual heartbeat.
  cluster.run_until(16 * sim::kSecond);
  std::uint64_t noops_at_16s = 0;
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    noops_at_16s += cluster.node(i).noops_injected();
  }
  cluster.run_until(20 * sim::kSecond);
  std::uint64_t noops_at_20s = 0;
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    noops_at_20s += cluster.node(i).noops_injected();
  }
  EXPECT_EQ(noops_at_20s, noops_at_16s) << "no-op injection never quiesced";
}

TEST(Sequencer, RejectsOutOfRangeUse) {
  shard::Sequencer seq(2, [](const shard::GlobalRecord&) {});
  EXPECT_THROW(seq.push(2, make_exec({0, 0, 0, 1})), util::ContractViolation);
  protocol::Execute bad = make_exec({0, 0, 0, 1});
  bad.ordinal = shard::kMaxShardOrdinal + 1;
  EXPECT_THROW(seq.push(0, bad), util::ContractViolation);
  EXPECT_THROW(shard::Sequencer(0, [](const shard::GlobalRecord&) {}),
               util::ContractViolation);
}

}  // namespace
}  // namespace leopard
