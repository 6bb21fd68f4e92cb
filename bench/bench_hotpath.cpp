// Hot-path throughput record for the three runtime-dispatch layers plus the
// end-to-end effect: SHA-256 MB/s per kernel (one-shot and multi-buffer),
// HMAC context reuse, EventQueue events/s against the seed shared_ptr design,
// GF(256) AVX2-vs-SSSE3, and fig09-style wall-clock at n ∈ {100, 300}.
//
// Emits one JSON record on stdout (diagnostics on stderr) so CI and future
// PRs can track the trajectory: tools/check_bench_regression.py compares the
// machine-portable ratio metrics against the committed BENCH_hotpath.json and
// fails on >30% regression. See docs/PERF.md.
//
// Usage: bench_hotpath [--smoke] [--skip-fig09] [--no-acceptance]
//   --smoke          tiny sizes / short timings, no acceptance enforcement.
//   --skip-fig09     skip the (slow) end-to-end wall-clock section.
//   --no-acceptance  record but do not enforce the acceptance targets (CI
//                    uses this so check_bench_regression.py — which knows how
//                    to absorb shared-runner noise — is the sole verdict).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/threshold_sig.hpp"
#include "erasure/gf256.hpp"
#include "erasure/reed_solomon.hpp"
#include "harness/experiment.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace lc = leopard::crypto;
namespace le = leopard::erasure;
namespace ls = leopard::sim;
namespace lu = leopard::util;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// ---------------------------------------------------------------------------
// The seed event queue, reproduced verbatim-in-spirit as the ≥5x baseline:
// two shared_ptr control blocks per event plus a std::priority_queue of
// entries that copy them on every sift.
// ---------------------------------------------------------------------------

class SeedEventQueue {
 public:
  struct Handle {
    std::shared_ptr<bool> cancelled;
    void cancel() {
      if (cancelled) *cancelled = true;
    }
  };

  Handle schedule(ls::SimTime at, std::function<void()> fn) {
    auto flag = std::make_shared<bool>(false);
    heap_.push(Entry{at, next_seq_++,
                     std::make_shared<std::function<void()>>(std::move(fn)), flag});
    return Handle{std::move(flag)};
  }

  std::optional<std::pair<ls::SimTime, std::shared_ptr<std::function<void()>>>> pop_next(
      ls::SimTime limit) {
    while (!heap_.empty() && *heap_.top().cancelled) heap_.pop();
    if (heap_.empty() || heap_.top().at > limit) return std::nullopt;
    Entry e = heap_.top();
    heap_.pop();
    return std::make_pair(e.at, std::move(e.fn));
  }

 private:
  struct Entry {
    ls::SimTime at = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<std::function<void()>> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Section timers
// ---------------------------------------------------------------------------

struct ShaRecord {
  lc::Sha256::Kernel kernel;
  double one_shot_mbps = 0;
  double hash_many_mbps = 0;
};

ShaRecord run_sha_point(lc::Sha256::Kernel kernel, std::size_t buf_bytes,
                        std::size_t leaf_bytes, std::size_t leaf_count, double min_time) {
  lc::Sha256::force_kernel(kernel);
  ShaRecord rec{kernel, 0, 0};

  lu::Bytes buf(buf_bytes);
  lu::Rng rng(buf_bytes * 31 + 7);
  rng.fill(buf.data(), buf.size());

  {
    volatile std::uint8_t sink = 0;
    (void)lc::Sha256::hash(buf);  // warm-up
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      sink = sink ^ lc::Sha256::hash(buf)[0];
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    rec.one_shot_mbps = static_cast<double>(buf_bytes) * iters / elapsed / 1e6;
  }

  {
    lu::Bytes arena(leaf_bytes * leaf_count);
    rng.fill(arena.data(), arena.size());
    std::vector<lc::Sha256::DigestBytes> out(leaf_count);
    const std::uint8_t tag = 0x00;
    lc::Sha256::hash_many({&tag, 1}, arena.data(), leaf_bytes, leaf_bytes, leaf_count,
                          out.data());
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      lc::Sha256::hash_many({&tag, 1}, arena.data(), leaf_bytes, leaf_bytes, leaf_count,
                            out.data());
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    rec.hash_many_mbps = static_cast<double>(arena.size()) * iters / elapsed / 1e6;
  }
  return rec;
}

struct HmacTiming {
  double context_ops_s = 0;
  double fresh_ops_s = 0;
};

HmacTiming run_hmac(double min_time) {
  HmacTiming t;
  lu::Bytes key(32);
  lu::Bytes msg(32);  // a vote target: H(m) is 32 bytes
  lu::Rng rng(1234);
  rng.fill(key.data(), key.size());
  rng.fill(msg.data(), msg.size());

  {
    const lc::HmacContext ctx(key);
    volatile std::uint8_t sink = 0;
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      sink = sink ^ ctx.mac(msg)[0];
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    t.context_ops_s = iters / elapsed;
  }
  {
    volatile std::uint8_t sink = 0;
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      sink = sink ^ lc::hmac_sha256(key, msg)[0];  // re-keys every call
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    t.fresh_ops_s = iters / elapsed;
  }
  return t;
}

struct VoteCombineTiming {
  double batched_shares_s = 0;
  double scalar_shares_s = 0;
};

/// Leader vote aggregation at the fig09 n=100 point: combine() over a
/// 2f+1 = 67-share quorum. Batched = the production combine() (eight shares'
/// sixteen MACs per mac_tagged_many call); scalar = the pre-batching shape, one full
/// verify_share() per share plus the master evaluation.
VoteCombineTiming run_vote_combine(double min_time) {
  constexpr std::uint32_t kN = 100;
  constexpr std::uint32_t kQuorum = 67;
  const lc::ThresholdScheme ts(kN, kQuorum, 99);
  lu::Bytes msg(32);
  lu::Rng rng(555);
  rng.fill(msg.data(), msg.size());

  std::vector<lc::SignatureShare> shares;
  shares.reserve(kQuorum);
  for (std::uint32_t i = 0; i < kQuorum; ++i) shares.push_back(ts.sign_share(i, msg));
  const auto combined = ts.combine(msg, shares);

  VoteCombineTiming t;
  {
    volatile bool sink = false;
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      sink = sink ^ ts.combine(msg, shares).has_value();
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    t.batched_shares_s = static_cast<double>(kQuorum) * iters / elapsed;
  }
  {
    volatile bool sink = false;
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      bool ok = true;
      for (const auto& s : shares) ok = ok && ts.verify_share(msg, s);
      sink = sink ^ (ok && ts.verify(msg, *combined));
      ++iters;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    t.scalar_shares_s = static_cast<double>(kQuorum) * iters / elapsed;
  }
  return t;
}

struct EventQueueTiming {
  double events_s = 0;
  double seed_events_s = 0;
  double plain_events_s = 0;
  double plain_seed_events_s = 0;
};

/// The simulated per-message payload shape: the real network hop closures
/// capture this + two node ids + a PayloadPtr + a size (~40 bytes including a
/// shared_ptr), which is what forces the seed design's third allocation.
struct HopPayload {
  std::size_t size = 128;
};

std::uint64_t g_eq_sink = 0;

/// Request-lifecycle hold model at a steady `depth`: each fired event
/// schedules its successor, arms `timeouts_per_event` resubmission-style
/// timers, and cancels that many old ones — the simulator's per-request
/// pattern (client resubmission, retrieval, view-change escalation timers are
/// armed per request/hop and almost always cancelled). Counts every scheduled
/// event (each is later popped or cancelled) per second.
///
/// `timeouts_per_event = 0` degenerates to the plain schedule+pop hold model.
template <typename Queue, typename PopRun>
double run_queue_lifecycle(std::size_t depth, std::size_t ops, std::size_t timeouts_per_event,
                           PopRun poprun) {
  Queue q;
  lu::Rng rng(777);
  auto payload = std::make_shared<const HopPayload>();
  auto make_cb = [&]() {
    return [p = payload, from = 1u, to = 2u, size = std::size_t{194}] {
      g_eq_sink += size + from + to + p->size;
    };
  };
  std::deque<decltype(q.schedule(0, make_cb()))> timeouts;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(static_cast<ls::SimTime>(rng.uniform(100000)), make_cb());
  }
  std::uint64_t scheduled = 0;
  ls::SimTime now = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    now = poprun(q);
    q.schedule(now + 1 + static_cast<ls::SimTime>(rng.uniform(100000)), make_cb());
    ++scheduled;
    for (std::size_t t = 0; t < timeouts_per_event; ++t) {
      timeouts.push_back(
          q.schedule(now + 100000000 + static_cast<ls::SimTime>(rng.uniform(100000)),
                     make_cb()));
      ++scheduled;
    }
    while (timeouts.size() > timeouts_per_event * 64) {
      timeouts.front().cancel();
      timeouts.pop_front();
    }
  }
  return static_cast<double>(scheduled) / seconds_since(start);
}

EventQueueTiming run_event_queue(std::size_t depth, std::size_t ops,
                                 std::size_t timeouts_per_event) {
  constexpr ls::SimTime kNoLimit = ls::SimTime{1} << 60;
  const auto pop_new = [](ls::EventQueue& q) {
    auto e = q.pop_next(kNoLimit);
    e->second();
    return e->first;
  };
  const auto pop_seed = [](SeedEventQueue& q) {
    auto e = q.pop_next(kNoLimit);
    (*e->second)();
    return e->first;
  };
  EventQueueTiming t;
  t.events_s = run_queue_lifecycle<ls::EventQueue>(depth, ops, timeouts_per_event, pop_new);
  t.seed_events_s =
      run_queue_lifecycle<SeedEventQueue>(depth, ops, timeouts_per_event, pop_seed);
  t.plain_events_s = run_queue_lifecycle<ls::EventQueue>(depth, ops, 0, pop_new);
  t.plain_seed_events_s = run_queue_lifecycle<SeedEventQueue>(depth, ops, 0, pop_seed);
  return t;
}

/// GF(256) parity-row encode throughput under `kernel` at the acceptance
/// point (k=32, 64 KiB shards — the Leopard f+1 regime).
double run_gf256_encode(le::Gf256::Kernel kernel, std::size_t shard_bytes, double min_time) {
  le::Gf256::force_kernel(kernel);
  const std::uint32_t k = 32, n = 96;
  const le::ReedSolomon rs(k, n);
  const std::size_t msg_bytes = shard_bytes * k - 4;
  lu::Bytes msg(msg_bytes);
  lu::Rng rng(4321);
  rng.fill(msg.data(), msg.size());
  le::RsScratch scratch;
  (void)rs.encode_into(msg, scratch);
  int iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    (void)rs.encode_into(msg, scratch);
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < min_time);
  return static_cast<double>(msg_bytes) * iters / elapsed / 1e6;
}

struct Fig09Point {
  std::uint32_t n = 0;
  double wall_s = 0;
  double kreqs_s = 0;
};

Fig09Point run_fig09(std::uint32_t n) {
  leopard::harness::ExperimentConfig cfg;
  cfg.n = n;
  // Table II batch parameters for this scale (bench_common.hpp).
  if (n <= 64) {
    cfg.datablock_requests = 2000;
    cfg.bftblock_links = 100;
  } else if (n <= 128) {
    cfg.datablock_requests = 3000;
    cfg.bftblock_links = 300;
  } else if (n <= 300) {
    cfg.datablock_requests = 4000;
    cfg.bftblock_links = 300;
  } else {
    cfg.datablock_requests = 4000;
    cfg.bftblock_links = 400;
  }
  Fig09Point p;
  p.n = n;
  const auto start = Clock::now();
  const auto result = leopard::harness::run_experiment(cfg);
  p.wall_s = seconds_since(start);
  p.kreqs_s = result.throughput_kreqs;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool skip_fig09 = false;
  bool enforce_acceptance = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--skip-fig09") == 0) {
      skip_fig09 = true;
    } else if (std::strcmp(argv[i], "--no-acceptance") == 0) {
      enforce_acceptance = false;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--smoke] [--skip-fig09] [--no-acceptance]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  const double min_time = smoke ? 0.02 : 0.25;
  const std::size_t sha_buf = smoke ? (1u << 16) : (1u << 20);
  const std::size_t leaf_bytes = 1024, leaf_count = smoke ? 32 : 256;
  // Event-core point: depth 4096 is the measured in-flight event count of a
  // fig09 n≈100 run; 4 armed-then-cancelled timeouts per fired event is the
  // request-lifecycle mix (client resubmission + retrieval + view-change).
  const std::size_t eq_depth = smoke ? 512 : 4096;
  const std::size_t eq_ops = smoke ? 50000 : 500000;
  const std::size_t eq_timeouts = 4;
  // GF(256) acceptance point: L2-resident shard width (the retrieval-chunk
  // regime: a datablock split k ways is a few KiB per shard); the 64 KiB
  // point from bench_erasure_kernel is memory-bound and tracks DRAM, not the
  // kernel.
  const std::size_t gf_shard = 1u << 10;

  std::printf("{\"bench\":\"hotpath\",\"smoke\":%s", smoke ? "true" : "false");

  // --- SHA-256 --------------------------------------------------------------
  const auto sha_fast = lc::Sha256::active_kernel();
  double sha_portable_one_shot = 0, sha_fast_one_shot = 0;
  double sha_portable_many = 0, sha_fast_many = 0;
  std::printf(",\"sha256\":{\"kernel\":\"%s\",\"records\":[", lc::Sha256::kernel_name(sha_fast));
  bool first = true;
  double sha_wide_many = 0;
  lc::Sha256::Kernel sha_wide_kernel = lc::Sha256::Kernel::kPortable;
  for (const auto k : {lc::Sha256::Kernel::kPortable, lc::Sha256::Kernel::kShaNi,
                       lc::Sha256::Kernel::kArmCe, lc::Sha256::Kernel::kAvx2}) {
    if (!lc::Sha256::kernel_available(k)) continue;
    const auto rec = run_sha_point(k, sha_buf, leaf_bytes, leaf_count, min_time);
    if (k == lc::Sha256::Kernel::kPortable) {
      sha_portable_one_shot = rec.one_shot_mbps;
      sha_portable_many = rec.hash_many_mbps;
    }
    if (k == sha_fast) {
      sha_fast_one_shot = rec.one_shot_mbps;
      sha_fast_many = rec.hash_many_mbps;
    }
    // The transposed n-lane kernel, for the wide section below.
    if (k == lc::Sha256::Kernel::kAvx2) {
      sha_wide_many = rec.hash_many_mbps;
      sha_wide_kernel = k;
    }
    std::printf("%s{\"kernel\":\"%s\",\"one_shot_MBps\":%s,\"hash_many_MBps\":%s}",
                first ? "" : ",", lc::Sha256::kernel_name(k), fmt1(rec.one_shot_mbps).c_str(),
                fmt1(rec.hash_many_mbps).c_str());
    first = false;
    std::fflush(stdout);
  }
  lc::Sha256::force_kernel(sha_fast);
  // No hardware one-shot kernel -> no portable speedup ratio: emit null so
  // the CI checker skips the metric instead of comparing 1.0 against a
  // SHA-NI baseline (same contract as the gf256 section's missing-AVX2
  // case). The transposed n-lane kernel doesn't count here — its
  // single-stream path IS the portable loop.
  const bool sha_hw = sha_fast == lc::Sha256::Kernel::kShaNi ||
                      sha_fast == lc::Sha256::Kernel::kArmCe;
  const double sha_speedup =
      sha_hw && sha_portable_one_shot > 0 ? sha_fast_one_shot / sha_portable_one_shot : 0;
  const double sha_many_speedup =
      sha_hw && sha_portable_many > 0 ? sha_fast_many / sha_portable_many : 0;
  std::printf("],\"speedup_one_shot\":%s,\"speedup_hash_many\":%s}",
              sha_speedup > 0 ? fmt2(sha_speedup).c_str() : "null",
              sha_many_speedup > 0 ? fmt2(sha_many_speedup).c_str() : "null");

  // --- n-lane multi-buffer SHA (the portable-fallback story) ----------------
  // hash_many through the transposed AVX2 kernel vs the portable path: the
  // gain a machine WITHOUT SHA ISA sees on Merkle/vote batches.
  const bool sha_has_wide = sha_wide_many > 0;
  const double sha_wide_speedup =
      sha_has_wide && sha_portable_many > 0 ? sha_wide_many / sha_portable_many : 0;
  {
    lc::Sha256::force_kernel(sha_wide_kernel);
    const std::size_t lanes = sha_has_wide ? lc::Sha256::wide_lanes() : 0;
    lc::Sha256::force_kernel(sha_fast);
    std::printf(",\"sha256_wide\":{\"kernel\":\"%s\",\"lanes\":%zu,"
                "\"wide_hash_many_MBps\":%s,\"portable_hash_many_MBps\":%s,"
                "\"speedup_wide\":%s}",
                sha_has_wide ? lc::Sha256::kernel_name(sha_wide_kernel) : "none", lanes,
                fmt1(sha_wide_many).c_str(), fmt1(sha_portable_many).c_str(),
                sha_wide_speedup > 0 ? fmt2(sha_wide_speedup).c_str() : "null");
  }

  // --- HMAC -----------------------------------------------------------------
  const auto hmac = run_hmac(min_time);
  const double hmac_speedup = hmac.fresh_ops_s > 0 ? hmac.context_ops_s / hmac.fresh_ops_s : 0;
  std::printf(",\"hmac\":{\"context_ops_s\":%s,\"fresh_ops_s\":%s,\"speedup\":%s}",
              fmt1(hmac.context_ops_s).c_str(), fmt1(hmac.fresh_ops_s).c_str(),
              fmt2(hmac_speedup).c_str());

  // --- Vote combine (batched share verification) ----------------------------
  const auto vc = run_vote_combine(min_time);
  const double vc_speedup =
      vc.scalar_shares_s > 0 ? vc.batched_shares_s / vc.scalar_shares_s : 0;
  std::printf(",\"vote_combine\":{\"quorum\":67,\"batched_shares_s\":%s,"
              "\"scalar_shares_s\":%s,\"speedup\":%s}",
              fmt1(vc.batched_shares_s).c_str(), fmt1(vc.scalar_shares_s).c_str(),
              fmt2(vc_speedup).c_str());

  // --- EventQueue -----------------------------------------------------------
  const auto eq = run_event_queue(eq_depth, eq_ops, eq_timeouts);
  const double eq_speedup = eq.seed_events_s > 0 ? eq.events_s / eq.seed_events_s : 0;
  const double eq_plain_speedup =
      eq.plain_seed_events_s > 0 ? eq.plain_events_s / eq.plain_seed_events_s : 0;
  std::printf(",\"event_queue\":{\"depth\":%zu,\"timeouts_per_event\":%zu,"
              "\"events_s\":%s,\"seed_events_s\":%s,\"speedup\":%s,"
              "\"plain_events_s\":%s,\"plain_seed_events_s\":%s,\"plain_speedup\":%s}",
              eq_depth, eq_timeouts, fmt1(eq.events_s).c_str(),
              fmt1(eq.seed_events_s).c_str(), fmt2(eq_speedup).c_str(),
              fmt1(eq.plain_events_s).c_str(), fmt1(eq.plain_seed_events_s).c_str(),
              fmt2(eq_plain_speedup).c_str());

  // --- GF(256) AVX2 vs SSSE3 ------------------------------------------------
  const auto gf_prev = le::Gf256::active_kernel();
  double gf_ssse3 = 0, gf_avx2 = 0, gf_ratio = 0;
  const bool have_avx2 = le::Gf256::kernel_available(le::Gf256::Kernel::kAvx2);
  if (le::Gf256::kernel_available(le::Gf256::Kernel::kSsse3)) {
    gf_ssse3 = run_gf256_encode(le::Gf256::Kernel::kSsse3, gf_shard, min_time);
  }
  if (have_avx2) {
    gf_avx2 = run_gf256_encode(le::Gf256::Kernel::kAvx2, gf_shard, min_time);
  }
  le::Gf256::force_kernel(gf_prev);
  if (gf_ssse3 > 0 && gf_avx2 > 0) gf_ratio = gf_avx2 / gf_ssse3;
  std::printf(",\"gf256\":{\"k\":32,\"shard_bytes\":%zu,\"ssse3_encode_MBps\":%s,"
              "\"avx2_encode_MBps\":%s,\"avx2_vs_ssse3\":%s}",
              gf_shard, fmt1(gf_ssse3).c_str(), fmt1(gf_avx2).c_str(),
              gf_ratio > 0 ? fmt2(gf_ratio).c_str() : "null");

  // --- fig09-style end-to-end wall-clock -------------------------------------
  std::printf(",\"fig09\":[");
  if (!skip_fig09) {
    const std::vector<std::uint32_t> scales =
        smoke ? std::vector<std::uint32_t>{16} : std::vector<std::uint32_t>{100, 300};
    first = true;
    for (const auto n : scales) {
      std::fflush(stdout);
      const auto p = run_fig09(n);
      std::printf("%s{\"n\":%u,\"wall_s\":%s,\"kreqs_s\":%s}", first ? "" : ",", p.n,
                  fmt2(p.wall_s).c_str(), fmt1(p.kreqs_s).c_str());
      first = false;
    }
  }
  std::printf("]");

  // --- acceptance -----------------------------------------------------------
  // SHA speedup only binds where a hardware kernel exists; AVX2 ratio only
  // where AVX2 exists; the n-lane ratio only where a transposed wide kernel
  // exists (everywhere except portable-only builds).
  const bool sha_ok = !sha_hw || sha_speedup >= 4.0;
  const bool eq_ok = eq_speedup >= 5.0;
  const bool gf_ok = !have_avx2 || gf_ssse3 <= 0 || gf_ratio >= 1.5;
  const bool wide_ok = !sha_has_wide || sha_wide_speedup >= 1.5;
  const bool pass = smoke || (sha_ok && eq_ok && gf_ok && wide_ok);
  std::printf(",\"acceptance\":{\"sha256_speedup\":%s,\"sha256_target\":4.0,"
              "\"sha256_wide_speedup\":%s,\"sha256_wide_target\":1.5,"
              "\"event_queue_speedup\":%s,\"event_queue_target\":5.0,"
              "\"avx2_vs_ssse3\":%s,\"avx2_target\":1.5,\"pass\":%s}}\n",
              sha_speedup > 0 ? fmt2(sha_speedup).c_str() : "null",
              sha_wide_speedup > 0 ? fmt2(sha_wide_speedup).c_str() : "null",
              fmt2(eq_speedup).c_str(),
              gf_ratio > 0 ? fmt2(gf_ratio).c_str() : "null", pass ? "true" : "false");

  if (!pass) {
    std::fprintf(stderr,
                 "acceptance %s: sha=%.2fx (>=4 needed: %s) wide=%.2fx (>=1.5: %s) "
                 "eq=%.2fx (>=5) avx2=%.2fx (>=1.5: %s)\n",
                 enforce_acceptance ? "FAILED" : "missed (not enforced)", sha_speedup,
                 sha_hw ? "yes" : "no", sha_wide_speedup, sha_has_wide ? "yes" : "no",
                 eq_speedup, gf_ratio, have_avx2 ? "yes" : "no");
    if (enforce_acceptance) return 1;
  }
  return 0;
}
