// Run-wide metrics registry: counters, gauges and log-2-bucket histograms
// that the sim engine, the model-checker engine and the fuzzer all register
// into, so one snapshot describes a whole run or campaign.
//
// Concurrency model (the same single-writer/atomic-reader discipline as the
// mc seen-set): every writing thread owns a Scope, a fixed-size shard of
// plain uint64 cells written through relaxed std::atomic_ref stores by one
// writer at a time. The hot path — Scope::add / Scope::observe — is a bounds
// check plus one relaxed load+store into the owned shard: no locks, no heap
// allocation, no cross-thread cache-line traffic. The registry mutex guards
// only the cold paths (metric registration, scope birth/death, snapshot),
// and a dying Scope merges its shard into registry-level retired totals so
// memory stays bounded over long campaigns no matter how many short-lived
// scopes (one per fuzz run, one per mc worker) come and go.
//
// Metric ids are stable cell offsets: registering the same (name, kind)
// twice returns the same id, so every engine in a campaign accumulates into
// the same logical counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wfd::obs {

class Registry;

/// Merged view of every metric at one instant. Histogram buckets are log-2:
/// bucket 0 holds zero values, bucket i >= 1 holds [2^(i-1), 2^i).
struct Snapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  struct Histogram {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, 64> buckets{};

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Nearest-rank percentile over the bucket upper bounds (an upper bound
    /// on the true percentile; exact for bucket-aligned distributions).
    std::uint64_t percentile(double p) const {
      if (count == 0) return 0;
      if (p < 0.0) p = 0.0;
      if (p > 1.0) p = 1.0;
      const std::uint64_t rank =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                         p * static_cast<double>(count) + 0.5));
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (seen >= rank) {
          return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
        }
      }
      return (std::uint64_t{1} << 63);
    }
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  /// Name-sorted counter view: the stable per-run export the fuzz coverage
  /// map bucketizes (and the snapshot-group wire format ships across
  /// forks). Sorting by name makes the export independent of metric
  /// registration order, so two runs that brought their engines up in
  /// different orders still export — and hash — identically.
  std::vector<Counter> sorted_counters() const {
    std::vector<Counter> out = counters;
    std::sort(out.begin(), out.end(), [](const Counter& a, const Counter& b) {
      return a.name < b.name;
    });
    return out;
  }

  const Counter* find_counter(std::string_view name) const {
    for (const Counter& c : counters) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }
  std::uint64_t counter_value(std::string_view name) const {
    const Counter* c = find_counter(name);
    return c == nullptr ? 0 : c->value;
  }
  const Gauge* find_gauge(std::string_view name) const {
    for (const Gauge& g : gauges) {
      if (g.name == name) return &g;
    }
    return nullptr;
  }
  const Histogram* find_histogram(std::string_view name) const {
    for (const Histogram& h : histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }

  /// Flat JSON object: counters as integers, gauges as doubles, histograms
  /// as {count, sum, mean, p50, p99}. Metric names are code-controlled
  /// identifiers (no escaping needed beyond quotes).
  std::string to_json() const {
    std::ostringstream out;
    out << '{';
    bool first = true;
    const auto sep = [&] {
      if (!first) out << ',';
      first = false;
    };
    for (const Counter& c : counters) {
      sep();
      out << '"' << c.name << "\":" << c.value;
    }
    for (const Gauge& g : gauges) {
      sep();
      out << '"' << g.name << "\":" << g.value;
    }
    for (const Histogram& h : histograms) {
      sep();
      out << '"' << h.name << "\":{\"count\":" << h.count
          << ",\"sum\":" << h.sum << ",\"mean\":" << h.mean()
          << ",\"p50\":" << h.percentile(0.5)
          << ",\"p99\":" << h.percentile(0.99) << '}';
    }
    out << '}';
    return out.str();
  }
};

/// One writer thread's shard handle. Construct against a Registry, hold it
/// for the lifetime of the instrumented work, let the destructor retire the
/// shard (its totals fold into the registry). A Scope has one writer at a
/// time: threads that write concurrently take distinct Scopes. Threads may
/// take turns on one Scope when something orders the turns: the mc
/// engine's level step is a std::barrier completion step, run by whichever
/// worker arrives last, and the barrier orders each run after the previous.
class Scope {
 public:
  explicit Scope(Registry& registry);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Counter increment. `id` must come from Registry::counter.
  void add(std::uint32_t id, std::uint64_t delta = 1) {
    bump(id, delta);
  }

  /// Histogram sample. `id` must come from Registry::histogram.
  void observe(std::uint32_t id, std::uint64_t value) {
    bump(id, 1);          // count
    bump(id + 1, value);  // sum
    const std::size_t bucket =
        std::min<std::size_t>(std::bit_width(value), 63);
    bump(id + 2 + static_cast<std::uint32_t>(bucket), 1);
  }

 private:
  void bump(std::uint32_t cell, std::uint64_t delta) {
    std::atomic_ref<std::uint64_t> ref(cells_[cell]);
    ref.store(ref.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
  }

  Registry& registry_;
  std::unique_ptr<std::uint64_t[]> cells_;
};

class Registry {
 public:
  using Id = std::uint32_t;
  /// Fixed shard size: every Scope covers every metric that will ever be
  /// registered, so registration after a Scope exists is race-free (the
  /// cells are already there, zeroed).
  static constexpr std::size_t kMaxCells = 4096;
  static constexpr std::size_t kHistogramCells = 2 + 64;  // count, sum, buckets

  /// Register (or look up) a monotonically increasing counter.
  Id counter(std::string_view name) { return reg(name, Kind::kCounter, 1); }

  /// Register (or look up) a log-2-bucket histogram.
  Id histogram(std::string_view name) {
    return reg(name, Kind::kHistogram, kHistogramCells);
  }

  /// Register (or look up) a last-write-wins gauge. Gauges live registry-
  /// side (summing shards would be meaningless for a level).
  Id gauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Metric& m : metrics_) {
      if (m.kind == Kind::kGauge && m.name == name) return m.slot;
    }
    const Id slot = static_cast<Id>(gauges_.size());
    gauges_.emplace_back(0);
    metrics_.push_back({std::string(name), Kind::kGauge, slot});
    return slot;
  }

  /// Set a gauge (thread-safe, last write wins).
  void set_gauge(Id gauge_id, double value) {
    gauges_[gauge_id].store(std::bit_cast<std::uint64_t>(value),
                            std::memory_order_relaxed);
  }

  /// Merge retired totals plus every live shard into one Snapshot.
  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> totals(retired_.begin(), retired_.end());
    for (const std::uint64_t* shard : shards_) {
      for (std::size_t i = 0; i < next_cell_; ++i) {
        std::atomic_ref<const std::uint64_t> ref(shard[i]);
        totals[i] += ref.load(std::memory_order_relaxed);
      }
    }
    Snapshot snap;
    for (const Metric& m : metrics_) {
      switch (m.kind) {
        case Kind::kCounter:
          snap.counters.push_back({m.name, totals[m.slot]});
          break;
        case Kind::kGauge:
          snap.gauges.push_back(
              {m.name, std::bit_cast<double>(
                           gauges_[m.slot].load(std::memory_order_relaxed))});
          break;
        case Kind::kHistogram: {
          Snapshot::Histogram h;
          h.name = m.name;
          h.count = totals[m.slot];
          h.sum = totals[m.slot + 1];
          for (std::size_t b = 0; b < 64; ++b) {
            h.buckets[b] = totals[m.slot + 2 + b];
          }
          snap.histograms.push_back(std::move(h));
          break;
        }
      }
    }
    return snap;
  }

 private:
  friend class Scope;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    Kind kind;
    Id slot;  ///< cell offset (counter/histogram) or gauge index
  };

  Id reg(std::string_view name, Kind kind, std::size_t cells) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Metric& m : metrics_) {
      if (m.kind == kind && m.name == name) return m.slot;
    }
    if (next_cell_ + cells > kMaxCells) {
      throw std::length_error("obs::Registry: metric cell budget exhausted");
    }
    const Id slot = static_cast<Id>(next_cell_);
    next_cell_ += cells;
    metrics_.push_back({std::string(name), kind, slot});
    return slot;
  }

  void attach(std::uint64_t* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }
  void retire(std::uint64_t* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i] == shard) {
        shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    for (std::size_t i = 0; i < kMaxCells; ++i) retired_[i] += shard[i];
  }

  mutable std::mutex mu_;
  std::vector<Metric> metrics_;
  std::size_t next_cell_ = 0;
  std::deque<std::atomic<std::uint64_t>> gauges_;  ///< double bit patterns
  std::vector<std::uint64_t*> shards_;             ///< live Scope cell arrays
  std::array<std::uint64_t, kMaxCells> retired_{};
};

inline Scope::Scope(Registry& registry)
    : registry_(registry),
      cells_(std::make_unique<std::uint64_t[]>(Registry::kMaxCells)) {
  std::memset(cells_.get(), 0, Registry::kMaxCells * sizeof(std::uint64_t));
  registry_.attach(cells_.get());
}

inline Scope::~Scope() { registry_.retire(cells_.get()); }

}  // namespace wfd::obs
