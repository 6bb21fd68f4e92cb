// Lock-free metrics registry: counters, gauges, and HDR histograms recorded
// through per-thread shard blocks and aggregated only at scrape time.
//
// Record path (Counter::inc, Histogram::record): resolve this thread's slot
// block from a small thread-local cache, then plain relaxed atomic
// load+store on slots this thread exclusively writes — no locks, no RMW, no
// cache-line ping-pong between io-threads. A thread's first record against a
// registry takes a mutex once to allocate its block; blocks are append-only
// and owned by the registry, so counts survive thread exit.
//
// Scrape path (render_prometheus, snapshots): takes the registration mutex
// (blocking registration, never recording) and sums every thread block with
// relaxed loads. Scrapes are permitted to tear across slots — a counter read
// concurrent with increments is merely slightly stale, which is the
// Prometheus contract anyway.
//
// Gauges are single atomic cells (last-writer-wins set from any thread).
// Callback series (gauge_fn/counter_fn) are evaluated on the scraping thread
// at scrape time; callers registering one must only read state owned by the
// thread that scrapes (in leopard_node the HTTP server runs on the transport
// thread's event loop, so transport-owned state is safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace leopard::obs {

/// CLOCK_MONOTONIC in nanoseconds — the shared timestamp source for duration
/// histograms (comparable across threads, and across processes on one host).
[[nodiscard]] std::int64_t mono_now_ns();

class Registry;
class JsonWriter;

/// The flat-text key of a series (Registry::write_flat) from its /statusz
/// `metrics` key (`name` or `name{labels}`): every '"' is dropped, every '='
/// becomes ':' and every whitespace character becomes '_'. For example
/// `leopard_net_peer_shed_frames_total{peer="3"}` becomes
/// `leopard_net_peer_shed_frames_total{peer:3}`.
[[nodiscard]] std::string flat_key(std::string_view statusz_key);

class Counter {
 public:
  Counter() = default;
  inline void inc(std::uint64_t n = 1) const;

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  inline void record(std::uint64_t value) const;
  /// Convenience for duration instrumentation: record(now - t0_ns), clamped
  /// at zero.
  inline void record_since(std::int64_t t0_ns) const;

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Aggregated histogram state at one scrape.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // HdrLayout::kBuckets entries

  [[nodiscard]] std::uint64_t percentile(double p) const {
    return buckets.empty() ? 0 : hdr_percentile(buckets, count, p);
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every layer's instrumentation lands in.
  static Registry& global();

  /// Register (or look up — same name+labels returns the same series) a
  /// metric. `labels` is a raw Prometheus label body, e.g. `peer="3"`.
  Counter counter(const std::string& name, const std::string& help,
                  const std::string& labels = {});
  Gauge gauge(const std::string& name, const std::string& help,
              const std::string& labels = {});
  Histogram histogram(const std::string& name, const std::string& help,
                      const std::string& labels = {});

  /// Scrape-evaluated series: `fn` runs on the scraping thread at scrape
  /// time. Re-registering the same name+labels replaces the callback (so a
  /// recreated owner never leaves a dangling capture behind).
  void gauge_fn(const std::string& name, const std::string& help, const std::string& labels,
                std::function<double()> fn);
  void counter_fn(const std::string& name, const std::string& help, const std::string& labels,
                  std::function<double()> fn);

  /// Unlabeled callback series over plain stats fields: each reads `*field`
  /// at scrape time, so the fields' owner must outlive every scrape and be
  /// driven from the scraping thread.
  struct FieldSeries {
    const char* name;
    const char* help;
    const std::uint64_t* field;
  };
  void counter_fields(std::initializer_list<FieldSeries> series);
  void gauge_fields(std::initializer_list<FieldSeries> series);

  [[nodiscard]] std::uint64_t counter_value(const Counter& c);
  [[nodiscard]] HistogramSnapshot histogram_snapshot(const Histogram& h);

  /// Prometheus text exposition format (version 0.0.4). Histogram `le`
  /// boundaries are coarsened to powers of two; full-resolution percentiles
  /// live in write_statusz / snapshots.
  [[nodiscard]] std::string render_prometheus();

  /// JSON object of every series: counters/gauges as numbers, histograms as
  /// {count,mean,p50,p90,p99,p999,max}. The writer must be positioned for a
  /// value (this emits one object). A series' member key is its name, plus
  /// `{labels}` when it has labels.
  void write_statusz(JsonWriter& w);

  /// The same series as write_statusz, appended to `out` as `key=value`
  /// text, one series per line. The key is flat_key() of the series'
  /// write_statusz key; a histogram prints one token per write_statusz
  /// field, `key.count=… key.mean=… key.p50=… key.p90=… key.p99=… key.p999=…
  /// key.max=…`. No key or value holds '=' or whitespace, so every token
  /// splits at its first '='.
  void write_flat(std::string& out);

  // -- record-path internals (public for the inline handle methods) ---------
  [[nodiscard]] std::atomic<std::uint64_t>* thread_slots() {
    for (const auto& ref : tls_cache_) {
      if (ref.uid == uid_) return ref.slots;
    }
    return thread_slots_slow();
  }

 private:
  /// Fixed slot capacity per thread block. The bump allocator below hands
  /// offsets out of this range, so blocks allocated before a late
  /// registration still cover it.
  static constexpr std::uint32_t kBlockSlots = 1u << 16;

  struct ThreadBlock {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kCounterFn, kGaugeFn };

  struct Def {
    Kind kind;
    std::string name;
    std::string help;
    std::string labels;
    std::uint32_t slot = 0;                   // counters, histograms
    std::atomic<double>* cell = nullptr;      // gauges
    std::function<double()> fn;               // callback series
  };

  struct TlsRef {
    std::uint64_t uid = 0;
    std::atomic<std::uint64_t>* slots = nullptr;
  };
  static constexpr std::size_t kTlsRefs = 4;
  static thread_local TlsRef tls_cache_[kTlsRefs];

  std::atomic<std::uint64_t>* thread_slots_slow();
  // Scrape-time reads; callers hold mu_.
  [[nodiscard]] HistogramSnapshot snapshot_locked(std::uint32_t slot) const;
  [[nodiscard]] double scalar_locked(const Def& def) const;
  Def& intern(Kind kind, const std::string& name, const std::string& help,
              const std::string& labels, std::uint32_t slots_needed);
  [[nodiscard]] std::uint64_t sum_slot(std::uint32_t slot) const;  // callers hold mu_

  const std::uint64_t uid_;  // never reused: stale TLS refs can never false-match
  mutable std::mutex mu_;
  std::vector<ThreadBlock> blocks_;
  std::vector<Def> defs_;
  std::vector<std::string> family_order_;               // first-registration name order
  std::deque<std::atomic<double>> gauge_cells_;         // stable addresses
  std::uint32_t next_slot_ = 0;
};

// -- inline record paths -----------------------------------------------------

inline void Counter::inc(std::uint64_t n) const {
  if (reg_ == nullptr) return;
  auto* s = reg_->thread_slots() + slot_;
  s->store(s->load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void Histogram::record(std::uint64_t value) const {
  if (reg_ == nullptr) return;
  auto* base = reg_->thread_slots() + slot_;
  auto* bucket = base + HdrLayout::index_of(value);
  bucket->store(bucket->load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  auto* sum = base + HdrLayout::kBuckets;
  sum->store(sum->load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
  auto* max = base + HdrLayout::kBuckets + 1;
  if (value > max->load(std::memory_order_relaxed)) {
    max->store(value, std::memory_order_relaxed);  // slot is thread-exclusive
  }
}

inline void Histogram::record_since(std::int64_t t0_ns) const {
  const auto dt = mono_now_ns() - t0_ns;
  record(dt > 0 ? static_cast<std::uint64_t>(dt) : 0);
}

}  // namespace leopard::obs
