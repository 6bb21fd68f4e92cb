// Observability subsystem: HDR histogram accuracy against exact quantiles,
// the lock-free registry's record/scrape paths (including a record-vs-scrape
// race the tsan build hammers), JSON writer output, the HTTP exposition
// server on a polled event loop, and the request-stage tracer's sampling and
// span ring (src/obs/).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/http.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

using namespace leopard;
using obs::HdrHistogram;
using obs::HdrLayout;

namespace {

/// Exact nearest-rank quantile over raw samples, the reference the histogram
/// is judged against.
std::uint64_t exact_percentile(std::vector<std::uint64_t> samples, double p) {
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::uint64_t>(p * static_cast<double>(samples.size()) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

}  // namespace

// --- HdrLayout / HdrHistogram ------------------------------------------------

TEST(HdrLayout, IndexRoundTripsWithinBucketBounds) {
  // Every value must land in a bucket whose [lower_bound, lower_bound+width)
  // range contains it; exhaustive over the exact region, sampled above.
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const auto idx = HdrLayout::index_of(v);
    ASSERT_LT(idx, HdrLayout::kBuckets);
    EXPECT_GE(v, HdrLayout::lower_bound(idx)) << v;
    EXPECT_LT(v, HdrLayout::lower_bound(idx) + HdrLayout::width_of(idx)) << v;
  }
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.next_u64() >> (rng.uniform(40));
    const auto idx = HdrLayout::index_of(v);
    ASSERT_LT(idx, HdrLayout::kBuckets);
    if (v < (std::uint64_t{1} << HdrLayout::kMaxBits)) {
      EXPECT_GE(v, HdrLayout::lower_bound(idx)) << v;
      EXPECT_LT(v, HdrLayout::lower_bound(idx) + HdrLayout::width_of(idx)) << v;
    } else {
      EXPECT_EQ(idx, HdrLayout::kBuckets - 1) << "huge value must clamp to top bucket";
    }
  }
}

TEST(HdrLayout, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < HdrLayout::kSub; ++v) {
    EXPECT_EQ(HdrLayout::index_of(v), v);
    EXPECT_EQ(HdrLayout::representative(static_cast<std::uint32_t>(v)), v);
    EXPECT_EQ(HdrLayout::width_of(static_cast<std::uint32_t>(v)), 1u);
  }
}

TEST(HdrHistogram, PercentilesTrackExactQuantilesWithinRelativeError) {
  // Mixed-scale latency-like distribution: microseconds to seconds. The
  // layout guarantees ≤ 1/kSub relative quantization error; allow a little
  // slack for nearest-rank ties at bucket edges.
  util::Rng rng(42);
  HdrHistogram hist;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 50000; ++i) {
    // log-uniform over [1us, 2s)
    const double exponent = 10.0 + rng.uniform_real() * 21.0;
    const auto v = static_cast<std::uint64_t>(std::pow(2.0, exponent));
    samples.push_back(v);
    hist.record(v);
  }
  EXPECT_EQ(hist.count(), samples.size());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto exact = exact_percentile(samples, p);
    const auto approx = hist.percentile(p);
    const double rel = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LE(rel, 2.0 / HdrLayout::kSub) << "p=" << p << " exact=" << exact
                                          << " approx=" << approx;
  }
  EXPECT_EQ(hist.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(HdrHistogram, ResetClearsEverything) {
  HdrHistogram hist;
  hist.record(100);
  hist.record(1000);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.percentile(0.5), 0u);
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, CountersAndGaugesAggregateAcrossThreads) {
  obs::Registry reg;
  auto counter = reg.counter("test_ops_total", "ops");
  auto gauge = reg.gauge("test_depth", "depth");

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.inc();
    });
  }
  for (auto& th : threads) th.join();
  gauge.set(7.5);

  EXPECT_EQ(reg.counter_value(counter), 40000u);
  const auto text = reg.render_prometheus();
  EXPECT_NE(text.find("test_ops_total 40000"), std::string::npos) << text;
  EXPECT_NE(text.find("test_depth 7.5"), std::string::npos) << text;
}

TEST(Registry, SameNameAndLabelsReturnsSameSeries) {
  obs::Registry reg;
  auto a = reg.counter("dup_total", "h", "peer=\"1\"");
  auto b = reg.counter("dup_total", "h", "peer=\"1\"");
  auto other = reg.counter("dup_total", "h", "peer=\"2\"");
  a.inc(3);
  b.inc(4);
  other.inc(10);
  EXPECT_EQ(reg.counter_value(a), 7u);
  EXPECT_EQ(reg.counter_value(other), 10u);
}

TEST(Registry, HistogramSnapshotMatchesPlainHistogram) {
  obs::Registry reg;
  auto hist = reg.histogram("test_latency_ns", "lat");
  HdrHistogram reference;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform(5'000'000);
    hist.record(v);
    reference.record(v);
  }
  const auto snap = reg.histogram_snapshot(hist);
  EXPECT_EQ(snap.count, reference.count());
  EXPECT_EQ(snap.sum, reference.sum());
  EXPECT_EQ(snap.max, reference.max());
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(snap.percentile(p), reference.percentile(p)) << p;
  }
}

TEST(Registry, PrometheusHistogramBucketsAreCumulativeAndConsistent) {
  obs::Registry reg;
  auto hist = reg.histogram("render_ns", "render");
  for (std::uint64_t v : {10u, 100u, 1000u, 100000u, 10000000u}) hist.record(v);
  const auto text = reg.render_prometheus();
  ASSERT_NE(text.find("# TYPE render_ns histogram"), std::string::npos) << text;

  // Parse the bucket series: cumulative counts must be monotone and +Inf must
  // equal the _count line.
  std::uint64_t last = 0;
  std::uint64_t inf_count = 0;
  std::uint64_t count_line = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("render_ns_bucket", 0) == 0) {
      const auto count = std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(count, last) << line;
      last = count;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_count = count;
    } else if (line.rfind("render_ns_count", 0) == 0) {
      count_line = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(inf_count, 5u);
  EXPECT_EQ(count_line, 5u);
}

TEST(Registry, CallbackSeriesEvaluateAtScrape) {
  obs::Registry reg;
  std::uint64_t backing = 3;
  reg.counter_fn("cb_total", "cb", {},
                 [&backing] { return static_cast<double>(backing); });
  reg.gauge_fn("cb_gauge", "cb", {}, [] { return 2.25; });
  auto text = reg.render_prometheus();
  EXPECT_NE(text.find("cb_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("cb_gauge 2.25"), std::string::npos) << text;
  backing = 9;
  text = reg.render_prometheus();
  EXPECT_NE(text.find("cb_total 9"), std::string::npos) << text;
}

TEST(Registry, FlatKeyDropsQuotesAndMapsEqualsAndWhitespace) {
  EXPECT_EQ(obs::flat_key("leopard_net_frames_sent_total"), "leopard_net_frames_sent_total");
  EXPECT_EQ(obs::flat_key("leopard_net_peer_shed_frames_total{peer=\"3\"}"),
            "leopard_net_peer_shed_frames_total{peer:3}");
  EXPECT_EQ(obs::flat_key("x{a=\"b c\",d=\"e=f\"}"), "x{a:b_c,d:e:f}");
  EXPECT_EQ(obs::flat_key("x{a=\"tab\there\nnl\"}"), "x{a:tab_here_nl}");
}

TEST(Registry, WriteFlatRendersEverySeriesUnderTheKeyRule) {
  obs::Registry reg;
  reg.counter("flat_total", "c", "peer=\"3\"").inc(7);
  reg.gauge("flat_gauge", "g").set(-1.5);
  reg.counter_fn("flat_big_total", "c", {}, [] { return 1e12; });
  reg.gauge_fn("flat_ratio", "g", "kind=\"a b\"", [] { return 2.25; });
  auto hist = reg.histogram("flat_ns", "h", "stage=\"x\"");
  for (std::uint64_t v : {10u, 100u, 1000u, 100000u}) hist.record(v);
  const auto snap = reg.histogram_snapshot(hist);

  std::string out;
  reg.write_flat(out);
  // Split the way report parsers do: whitespace-separated tokens, each at its
  // first '='.
  std::map<std::string, std::string> kv;
  std::istringstream in(out);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    EXPECT_TRUE(kv.emplace(token.substr(0, eq), token.substr(eq + 1)).second) << token;
  }
  const std::map<std::string, std::string> expected = {
      {"flat_total{peer:3}", "7"},
      {"flat_gauge", "-1.5"},
      {"flat_big_total", "1000000000000"},
      {"flat_ratio{kind:a_b}", "2.25"},
      {"flat_ns{stage:x}.count", "4"},
      {"flat_ns{stage:x}.mean", "25277.5"},
      {"flat_ns{stage:x}.p50", std::to_string(snap.percentile(0.50))},
      {"flat_ns{stage:x}.p90", std::to_string(snap.percentile(0.90))},
      {"flat_ns{stage:x}.p99", std::to_string(snap.percentile(0.99))},
      {"flat_ns{stage:x}.p999", std::to_string(snap.percentile(0.999))},
      {"flat_ns{stage:x}.max", "100000"},
  };
  EXPECT_EQ(kv, expected) << out;
  // One line per series: the four scalars, then the histogram's seven fields.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5) << out;
}

TEST(Registry, ConcurrentRecordAndScrapeIsSafe) {
  // The tsan CI job runs this: writers hammer a counter + histogram while the
  // main thread scrapes both text and snapshots. Scrapes may tear (stale
  // values) but must never crash, race, or go backwards.
  obs::Registry reg;
  auto counter = reg.counter("race_total", "race");
  auto hist = reg.histogram("race_ns", "race");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        counter.inc();
        hist.record(rng.uniform(1'000'000));
      }
    });
  }

  std::uint64_t prev_count = 0;
  std::uint64_t prev_counter = 0;
  for (int i = 0; i < 200; ++i) {
    const auto text = reg.render_prometheus();
    EXPECT_NE(text.find("race_total"), std::string::npos);
    const auto snap = reg.histogram_snapshot(hist);
    EXPECT_GE(snap.count, prev_count) << "scraped count went backwards";
    prev_count = snap.count;
    const auto c = reg.counter_value(counter);
    EXPECT_GE(c, prev_counter) << "counter went backwards";
    prev_counter = c;
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Quiesced: totals are now exact and consistent.
  const auto snap = reg.histogram_snapshot(hist);
  std::uint64_t bucket_sum = 0;
  for (const auto b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, snap.count);
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, ProducesValidNestedJson) {
  obs::JsonWriter w;
  w.object_begin();
  w.key("name").value("le\"opard\n");
  w.key("count").value(std::uint64_t{42});
  w.key("ratio").value(0.5);
  w.key("live").value(true);
  w.key("items").array_begin();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.array_end();
  w.key("nested").object_begin().key("x").value(std::int64_t{-3}).object_end();
  w.object_end();
  EXPECT_EQ(w.str(),
            "{\"name\":\"le\\\"opard\\n\",\"count\":42,\"ratio\":0.5,\"live\":true,"
            "\"items\":[1,2],\"nested\":{\"x\":-3}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.array_begin();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.array_end();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --- HttpServer -------------------------------------------------------------

namespace {

/// Blocking mini HTTP client driven against a loop we poll ourselves: sends
/// one GET from a helper thread while the test thread polls the server loop.
std::string http_get(std::uint16_t port, const std::string& target, net::EventLoop& loop) {
  std::string response;
  std::atomic<bool> done{false};
  std::thread client([&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    const std::string req = "GET " + target + " HTTP/1.0\r\nHost: test\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    done.store(true);
  });
  // Serve until the client saw connection close (HTTP/1.0 semantics).
  for (int i = 0; i < 2000 && !done.load(); ++i) loop.poll(5);
  client.join();
  return response;
}

}  // namespace

TEST(HttpServer, ServesRegistryEndpoints) {
  obs::Registry reg;
  reg.counter("http_test_total", "t").inc(5);
  net::EventLoop loop;
  obs::HttpServer server(loop, {});
  ASSERT_TRUE(server.listening());
  ASSERT_NE(server.port(), 0);
  server.serve_registry(reg);

  const auto metrics = http_get(server.port(), "/metrics", loop);
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("http_test_total 5"), std::string::npos) << metrics;

  const auto health = http_get(server.port(), "/healthz", loop);
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const auto statusz = http_get(server.port(), "/statusz", loop);
  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("\"http_test_total\""), std::string::npos) << statusz;

  const auto missing = http_get(server.port(), "/nope", loop);
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(HttpServer, CustomHandlerSeesQueryString) {
  net::EventLoop loop;
  obs::HttpServer server(loop, {});
  ASSERT_TRUE(server.listening());
  server.handle("/echo", [](std::string_view query) {
    obs::HttpServer::Response resp;
    resp.body = "q=" + std::string(query) + " traces=" + obs::query_param(query, "traces");
    return resp;
  });
  const auto got = http_get(server.port(), "/echo?traces=1&x=2", loop);
  EXPECT_NE(got.find("q=traces=1&x=2 traces=1"), std::string::npos) << got;
}

TEST(HttpServer, QueryParamParsing) {
  EXPECT_EQ(obs::query_param("a=1&b=2", "a"), "1");
  EXPECT_EQ(obs::query_param("a=1&b=2", "b"), "2");
  EXPECT_EQ(obs::query_param("a=1&b=2", "c"), "");
  EXPECT_EQ(obs::query_param("", "a"), "");
  EXPECT_EQ(obs::query_param("flag", "flag"), "");
}

TEST(HttpServer, ParseDecimalAcceptsOnlyWholeBoundedDecimals) {
  EXPECT_EQ(obs::parse_decimal("2", 10), 2u);
  EXPECT_EQ(obs::parse_decimal("0", 10), 0u);
  EXPECT_EQ(obs::parse_decimal("4294967295", UINT32_MAX), 4294967295u);
  EXPECT_EQ(obs::parse_decimal("4294967296", UINT32_MAX), std::nullopt);
  EXPECT_EQ(obs::parse_decimal("18446744073709551616", UINT64_MAX), std::nullopt);
  for (const char* bad : {"", "2x", "x2", " 2", "2 ", "-1", "+1", "0x10", "1.0"}) {
    EXPECT_EQ(obs::parse_decimal(bad, UINT64_MAX), std::nullopt) << "'" << bad << "'";
  }
}

TEST(HttpServer, ParseListenAddrKeepsTheThreeFormsAndRejectsBadPorts) {
  const auto full = obs::parse_listen_addr("10.0.0.7:9100");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "10.0.0.7");
  EXPECT_EQ(full->port, 9100);
  const auto port_only = obs::parse_listen_addr(":9200");
  ASSERT_TRUE(port_only.has_value());
  EXPECT_EQ(port_only->host, "127.0.0.1");
  EXPECT_EQ(port_only->port, 9200);
  const auto bare = obs::parse_listen_addr("65535");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 65535);
  const auto ephemeral = obs::parse_listen_addr(":0");
  ASSERT_TRUE(ephemeral.has_value());
  EXPECT_EQ(ephemeral->port, 0);
  // :99999 used to truncate to port 34463, :abc to bind an ephemeral port.
  for (const char* bad : {":99999", "65536", ":abc", "abc", "127.0.0.1:9100x", ":9100 ",
                          "127.0.0.1:", ":", "", ":-1", "host:+80"}) {
    EXPECT_FALSE(obs::parse_listen_addr(bad).has_value()) << "'" << bad << "'";
  }
}

// --- StageTracer ------------------------------------------------------------

TEST(StageTracer, SamplingIsDeterministicAndRoughlyOneInN) {
  obs::Registry reg;
  obs::StageTracer::Options opts;
  opts.sample_every = 8;
  obs::StageTracer tracer(reg, opts);
  obs::StageTracer tracer2(reg, opts);

  int sampled = 0;
  for (std::uint64_t seq = 0; seq < 8000; ++seq) {
    const bool s = tracer.sampled(100, seq);
    EXPECT_EQ(s, tracer2.sampled(100, seq)) << "sampling must be replica-independent";
    if (s) ++sampled;
  }
  EXPECT_GT(sampled, 8000 / 8 / 2);
  EXPECT_LT(sampled, 8000 / 8 * 2);

  obs::StageTracer::Options off;
  off.sample_every = 0;
  obs::StageTracer disabled(reg, off);
  EXPECT_FALSE(disabled.sampled(1, 1));
}

TEST(StageTracer, SpansCompleteThroughRingAndHistograms) {
  obs::Registry reg;
  obs::StageTracer::Options opts;
  opts.sample_every = 1;  // sample everything
  opts.ring_capacity = 4;
  obs::StageTracer tracer(reg, opts);

  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    const std::int64_t ingress = static_cast<std::int64_t>(seq) * 1000;
    tracer.on_generated(7, seq, ingress, ingress + 100);
    tracer.on_executed(7, seq, ingress + 100, ingress + 250, ingress + 400);
  }

  const auto gen = reg.histogram_snapshot(
      reg.histogram("leopard_request_stage_ns", "h", "stage=\"generation\""));
  EXPECT_EQ(gen.count, 10u);
  EXPECT_EQ(gen.percentile(0.5), HdrLayout::representative(HdrLayout::index_of(100)));
  const auto total = reg.histogram_snapshot(
      reg.histogram("leopard_request_stage_ns", "h", "stage=\"total\""));
  EXPECT_EQ(total.count, 10u);

  // Ring holds only the last 4 spans, oldest first.
  obs::JsonWriter w;
  tracer.write_json(w);
  const auto& json = w.str();
  EXPECT_NE(json.find("\"spans_completed\":10"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"seq\":5"), std::string::npos) << "evicted span still present";
  EXPECT_NE(json.find("\"seq\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\":400"), std::string::npos) << json;
}

TEST(StageTracer, UnmatchedExecutionStillFeedsStageHistograms) {
  // An on_executed with no stashed ingress (e.g. tracer started mid-flight)
  // must still record dissemination/agreement, just not a total span.
  obs::Registry reg;
  obs::StageTracer::Options opts;
  opts.sample_every = 1;
  obs::StageTracer tracer(reg, opts);
  tracer.on_executed(3, 99, 1000, 1500, 2000);
  const auto diss = reg.histogram_snapshot(
      reg.histogram("leopard_request_stage_ns", "h", "stage=\"dissemination\""));
  EXPECT_EQ(diss.count, 1u);
  const auto total = reg.histogram_snapshot(
      reg.histogram("leopard_request_stage_ns", "h", "stage=\"total\""));
  EXPECT_EQ(total.count, 0u);
}
