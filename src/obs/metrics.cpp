#include "obs/metrics.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <utility>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace leopard::obs {

std::int64_t mono_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {
std::atomic<std::uint64_t> g_next_uid{1};
}  // namespace

thread_local Registry::TlsRef Registry::tls_cache_[Registry::kTlsRefs];

Registry::Registry() : uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: record handles may
  return *instance;                            // outlive every static dtor
}

std::atomic<std::uint64_t>* Registry::thread_slots_slow() {
  std::lock_guard<std::mutex> lk(mu_);
  ThreadBlock block;
  block.slots = std::make_unique<std::atomic<std::uint64_t>[]>(kBlockSlots);
  for (std::uint32_t i = 0; i < kBlockSlots; ++i) {
    block.slots[i].store(0, std::memory_order_relaxed);
  }
  auto* slots = block.slots.get();
  blocks_.push_back(std::move(block));
  // Rotate into the front of this thread's cache. Eviction of a still-live
  // registry only wastes a block on re-entry (counts stay correct: scrapes
  // sum every block) — and with the handful of registries a process ever
  // holds, eviction does not happen in practice.
  for (std::size_t i = kTlsRefs - 1; i > 0; --i) tls_cache_[i] = tls_cache_[i - 1];
  tls_cache_[0] = TlsRef{uid_, slots};
  return slots;
}

Registry::Def& Registry::intern(Kind kind, const std::string& name, const std::string& help,
                                const std::string& labels, std::uint32_t slots_needed) {
  // Callers hold mu_.
  for (auto& def : defs_) {
    if (def.name == name && def.labels == labels) {
      util::expects(def.kind == kind,
                    "obs::Registry: metric re-registered with a different type");
      return def;
    }
  }
  util::expects(next_slot_ + slots_needed <= kBlockSlots,
                "obs::Registry: slot capacity exhausted");
  if (std::find(family_order_.begin(), family_order_.end(), name) == family_order_.end()) {
    family_order_.push_back(name);
  }
  Def def;
  def.kind = kind;
  def.name = name;
  def.help = help;
  def.labels = labels;
  def.slot = next_slot_;
  next_slot_ += slots_needed;
  defs_.push_back(std::move(def));
  return defs_.back();
}

Counter Registry::counter(const std::string& name, const std::string& help,
                          const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  return Counter{this, intern(Kind::kCounter, name, help, labels, 1).slot};
}

Gauge Registry::gauge(const std::string& name, const std::string& help,
                      const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& def = intern(Kind::kGauge, name, help, labels, 0);
  if (def.cell == nullptr) {
    gauge_cells_.emplace_back(0.0);
    def.cell = &gauge_cells_.back();
  }
  return Gauge{def.cell};
}

Histogram Registry::histogram(const std::string& name, const std::string& help,
                              const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  // Buckets, then a sum slot, then a max slot.
  return Histogram{this, intern(Kind::kHistogram, name, help, labels,
                                HdrLayout::kBuckets + 2).slot};
}

void Registry::gauge_fn(const std::string& name, const std::string& help,
                        const std::string& labels, std::function<double()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  intern(Kind::kGaugeFn, name, help, labels, 0).fn = std::move(fn);
}

void Registry::counter_fn(const std::string& name, const std::string& help,
                          const std::string& labels, std::function<double()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  intern(Kind::kCounterFn, name, help, labels, 0).fn = std::move(fn);
}

void Registry::counter_fields(std::initializer_list<FieldSeries> series) {
  for (const auto& s : series) {
    counter_fn(s.name, s.help, {}, [field = s.field] { return static_cast<double>(*field); });
  }
}

void Registry::gauge_fields(std::initializer_list<FieldSeries> series) {
  for (const auto& s : series) {
    gauge_fn(s.name, s.help, {}, [field = s.field] { return static_cast<double>(*field); });
  }
}

std::uint64_t Registry::sum_slot(std::uint32_t slot) const {
  std::uint64_t total = 0;
  for (const auto& block : blocks_) {
    total += block.slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Registry::counter_value(const Counter& c) {
  util::expects(c.reg_ == this, "obs::Registry: counter from another registry");
  std::lock_guard<std::mutex> lk(mu_);
  return sum_slot(c.slot_);
}

HistogramSnapshot Registry::histogram_snapshot(const Histogram& h) {
  util::expects(h.reg_ == this, "obs::Registry: histogram from another registry");
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(h.slot_);
}

HistogramSnapshot Registry::snapshot_locked(std::uint32_t slot) const {
  HistogramSnapshot snap;
  snap.buckets.assign(HdrLayout::kBuckets, 0);
  for (const auto& block : blocks_) {
    const auto* base = block.slots.get() + slot;
    for (std::uint32_t i = 0; i < HdrLayout::kBuckets; ++i) {
      const auto n = base[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += base[HdrLayout::kBuckets].load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, base[HdrLayout::kBuckets + 1].load(std::memory_order_relaxed));
  }
  return snap;
}

double Registry::scalar_locked(const Def& def) const {
  if (def.kind == Kind::kCounter) return static_cast<double>(sum_slot(def.slot));
  if (def.kind == Kind::kGauge) return def.cell->load(std::memory_order_relaxed);
  return def.fn ? def.fn() : 0.0;  // callback series; histograms have no scalar
}

std::string flat_key(std::string_view statusz_key) {
  std::string key;
  for (const char c : statusz_key) {
    if (c == '"') continue;
    key += c == '=' ? ':' : std::isspace(static_cast<unsigned char>(c)) != 0 ? '_' : c;
  }
  return key;
}

namespace {

void append_series(std::string& out, const std::string& name, const std::string& labels,
                   const char* suffix, const std::string& extra_label, double value) {
  out += name;
  out += suffix;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  out += ' ';
  append_number(out, value, "%.17g");
  out += '\n';
}

const char* type_name(bool counter_like, bool histogram) {
  if (histogram) return "histogram";
  return counter_like ? "counter" : "gauge";
}

/// write_statusz's member key for a series: `name`, or `name{labels}`.
std::string statusz_key(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

/// The seven fields a histogram shows in /statusz and in the flat text.
std::array<std::pair<const char*, double>, 7> histogram_fields(const HistogramSnapshot& snap) {
  const auto p = [&](double q) { return static_cast<double>(snap.percentile(q)); };
  return {{{"count", static_cast<double>(snap.count)},
           {"mean", snap.mean()},
           {"p50", p(0.50)},
           {"p90", p(0.90)},
           {"p99", p(0.99)},
           {"p999", p(0.999)},
           {"max", static_cast<double>(snap.max)}}};
}

}  // namespace

std::string Registry::render_prometheus() {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& family : family_order_) {
    bool header_done = false;
    for (const auto& def : defs_) {
      if (def.name != family) continue;
      if (!header_done) {
        header_done = true;
        out += "# HELP " + family + " ";
        for (const char c : def.help) out += (c == '\n' ? ' ' : c);
        out += '\n';
        const bool counter_like =
            def.kind == Kind::kCounter || def.kind == Kind::kCounterFn;
        out += "# TYPE " + family + " " +
               type_name(counter_like, def.kind == Kind::kHistogram) + "\n";
      }
      if (def.kind != Kind::kHistogram) {
        append_series(out, def.name, def.labels, "", {}, scalar_locked(def));
        continue;
      }
      // Cumulative buckets coarsened to the power-of-two boundaries: the kSub
      // sub-buckets inside each power of two nest exactly, so the cumulative
      // count at le=2^e is exact.
      const auto snap = snapshot_locked(def.slot);
      std::uint64_t cum = 0;
      std::uint32_t next = 0;
      for (std::uint32_t e = HdrLayout::kSubBits; e < HdrLayout::kMaxBits; ++e) {
        const auto boundary = HdrLayout::index_of(std::uint64_t{1} << e);
        while (next < boundary) cum += snap.buckets[next++];
        char le[32];
        std::snprintf(le, sizeof(le), "le=\"%llu\"",
                      static_cast<unsigned long long>(std::uint64_t{1} << e));
        append_series(out, def.name, def.labels, "_bucket", le, static_cast<double>(cum));
      }
      append_series(out, def.name, def.labels, "_bucket", "le=\"+Inf\"",
                    static_cast<double>(snap.count));
      append_series(out, def.name, def.labels, "_sum", {}, static_cast<double>(snap.sum));
      append_series(out, def.name, def.labels, "_count", {}, static_cast<double>(snap.count));
    }
  }
  return out;
}

void Registry::write_statusz(JsonWriter& w) {
  std::lock_guard<std::mutex> lk(mu_);
  w.object_begin();
  for (const auto& def : defs_) {
    w.key(statusz_key(def.name, def.labels));
    if (def.kind != Kind::kHistogram) {
      w.value(scalar_locked(def));
      continue;
    }
    w.object_begin();
    for (const auto& [name, value] : histogram_fields(snapshot_locked(def.slot))) {
      w.key(name).value(value);
    }
    w.object_end();
  }
  w.object_end();
}

void Registry::write_flat(std::string& out) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& def : defs_) {
    const auto key = flat_key(statusz_key(def.name, def.labels));
    if (def.kind != Kind::kHistogram) {
      out += key;
      out += '=';
      append_number(out, scalar_locked(def));
      out += '\n';
      continue;
    }
    const char* sep = "";
    for (const auto& [name, value] : histogram_fields(snapshot_locked(def.slot))) {
      out += sep;
      out += key;
      out += '.';
      out += name;
      out += '=';
      append_number(out, value);
      sep = " ";
    }
    out += '\n';
  }
}

}  // namespace leopard::obs
