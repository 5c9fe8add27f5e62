// MetricsRegistry: one home for a run's named counters, gauges and
// histograms (the sweep runner, the stage profile, the host pipeline,
// the bench reports).
//
// Usage contract (zero steady-state allocation): components look their
// instruments up ONCE at wiring time — counter()/gauge()/histogram()
// find-or-create and return a reference with a stable address (deque
// storage, entries are never erased) — and the hot path only touches
// that reference. Snapshots walk registration order, so emitting a
// registry into BENCH_*.json is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace distscroll::obs {

class Counter {
 public:
  /// Snapshot-style assignment for components that keep their own
  /// counters and export them at the end of a run.
  void set(std::uint64_t value) { value_ = value; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log₂-bucketed histogram: bucket 0 covers [0, first_bucket), bucket
/// i >= 1 covers [first_bucket · 2^(i-1), first_bucket · 2^i), with
/// overflow folded into the last bucket. The default config is the
/// delivery-latency histogram exp_wireless_link reports: 16 buckets
/// from 0.5 ms reaching ~16 s, rendered in ms.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 16;

  struct Config {
    double first_bucket = 0.5e-3;  // > 0; seconds, for the latency default
    double display_scale = 1e3;    // render values as value * scale
    const char* unit = "ms";
  };

  Histogram() : Histogram(Config{}) {}
  explicit Histogram(Config config) : config_(config) {}

  void record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Sum of all recorded values (pre display_scale), so callers can
  /// derive means and time shares from a snapshot.
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }
  [[nodiscard]] double bucket_low(std::size_t i) const;

  /// Multi-line "bucket range | bar | count" rendering (only non-empty
  /// buckets; "(no samples)" when empty).
  [[nodiscard]] std::string render(int bar_width = 40) const;

  /// Zero all buckets, keeping the bucket configuration.
  void clear() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0.0;
  }

  /// Bucket-wise accumulate (the fleet fold-then-merge path; both sides
  /// should share a bucket configuration).
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  /// Restore a snapshot taken via count()/sum()/buckets() — the fleet
  /// checkpoint/resume path.
  void restore(std::uint64_t count, double sum, const std::array<std::uint64_t, kBuckets>& buckets) {
    buckets_ = buckets;
    count_ = count;
    sum_ = sum;
  }

 private:
  Config config_;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Find-or-create; the returned reference stays valid for the
  /// registry's lifetime (hot paths cache it).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, Histogram::Config config = {});

  struct Row {
    std::string name;
    double value = 0.0;  // counters/gauges; histograms report count()
    const Histogram* histogram = nullptr;  // non-null for histogram rows
  };
  /// All instruments in registration order.
  [[nodiscard]] std::vector<Row> rows() const;

  /// `"name": value` pairs, one per line with `indent` leading spaces —
  /// for embedding into BENCH_*.json objects. Histograms contribute
  /// three fields: "<name>_count", "<name>_sum_<unit>" (sum in display
  /// units) and "<name>_buckets" (the full log2 bucket array), so the
  /// bench artefacts carry real distributions, not just totals.
  [[nodiscard]] std::string to_json_fields(int indent = 2) const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
  };
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
  // Registration order across all three families.
  struct Key {
    int family;  // 0 counter, 1 gauge, 2 histogram
    std::size_t index;
  };
  std::vector<Key> order_;
};

}  // namespace distscroll::obs
