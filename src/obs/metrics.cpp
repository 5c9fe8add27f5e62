#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace distscroll::obs {

// --- Histogram --------------------------------------------------------------

namespace {

/// The bucket `value` counts in: 0 up to first_bucket, else
/// floor(log2(value / first_bucket)) + 1 capped at the last bucket.
std::size_t bucket_of(double value, double first_bucket) {
  constexpr std::size_t kBuckets = Histogram::kBuckets;
  if (!(value > first_bucket)) return 0;
  // r >= 1 (first_bucket > 0). Its bucket is floor(log2(r)) + 1, which
  // is the IEEE exponent + 1 unless r's significand (in [1, 2)) lies
  // within 2^-20 of 1 or of 2: there a libm ulp error in log2 could
  // cross the floor, so that band keeps the log2 expression itself.
  // Elsewhere log2(r) sits at least ~7e-7 from an integer, far beyond
  // any libm error, so the two agree exactly.
  const double r = value / first_bucket;
  const auto bits = std::bit_cast<std::uint64_t>(r);
  const auto exponent = static_cast<std::int64_t>(bits >> 52) - 1023;
  // Also catches r = +inf (exponent 1024); every r >= 2^15 lands last.
  if (exponent >= static_cast<std::int64_t>(kBuckets) - 1) return kBuckets - 1;
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kNearPow2 = std::uint64_t{1} << 32;  // 2^-20 in significand units
  const std::uint64_t mantissa = bits & kMantissa;
  if (mantissa >= kNearPow2 && mantissa <= kMantissa - kNearPow2) {
    return static_cast<std::size_t>(exponent) + 1;
  }
  const auto bucket = static_cast<std::size_t>(std::floor(std::log2(r))) + 1;
  return std::min(bucket, kBuckets - 1);
}

}  // namespace

void Histogram::record(double value) {
  ++count_;
  sum_ += value;
  ++buckets_[bucket_of(value, config_.first_bucket)];
}

double Histogram::bucket_low(std::size_t i) const {
  return (i == 0) ? 0.0 : config_.first_bucket * std::pow(2.0, static_cast<double>(i - 1));
}

std::string Histogram::render(int bar_width) const {
  std::string out;
  const std::uint64_t peak =
      std::max<std::uint64_t>(1, *std::max_element(buckets_.begin(), buckets_.end()));
  char line[160];
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const int bar = static_cast<int>(
        (buckets_[i] * static_cast<std::uint64_t>(bar_width) + peak - 1) / peak);
    std::snprintf(line, sizeof(line), "  %8.2f %s | %-*s %llu\n",
                  bucket_low(i) * config_.display_scale, config_.unit, bar_width,
                  std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
  }
  if (out.empty()) out = "  (no samples)\n";
  return out;
}

// --- MetricsRegistry --------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  for (auto& entry : counters_) {
    if (entry.name == name) return entry.instrument;
  }
  counters_.push_back({name, Counter{}});
  order_.push_back({0, counters_.size() - 1});
  return counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  for (auto& entry : gauges_) {
    if (entry.name == name) return entry.instrument;
  }
  gauges_.push_back({name, Gauge{}});
  order_.push_back({1, gauges_.size() - 1});
  return gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Histogram::Config config) {
  for (auto& entry : histograms_) {
    if (entry.name == name) return entry.instrument;
  }
  histograms_.push_back({name, Histogram{config}});
  order_.push_back({2, histograms_.size() - 1});
  return histograms_.back().instrument;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::rows() const {
  std::vector<Row> out;
  out.reserve(order_.size());
  for (const Key& key : order_) {
    switch (key.family) {
      case 0:
        out.push_back({counters_[key.index].name,
                       static_cast<double>(counters_[key.index].instrument.value()), nullptr});
        break;
      case 1:
        out.push_back({gauges_[key.index].name, gauges_[key.index].instrument.value(), nullptr});
        break;
      default:
        out.push_back({histograms_[key.index].name,
                       static_cast<double>(histograms_[key.index].instrument.count()),
                       &histograms_[key.index].instrument});
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::to_json_fields(int indent) const {
  std::string out;
  char line[256];
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  bool first = true;
  for (const Row& row : rows()) {
    if (!first) out += ",\n";
    first = false;
    if (row.histogram != nullptr) {
      const Histogram& hist = *row.histogram;
      std::snprintf(line, sizeof(line), "%s\"%s_count\": %.0f,\n", pad.c_str(),
                    row.name.c_str(), row.value);
      out += line;
      std::snprintf(line, sizeof(line), "%s\"%s_sum_%s\": %.3f,\n", pad.c_str(),
                    row.name.c_str(), hist.config().unit,
                    hist.sum() * hist.config().display_scale);
      out += line;
      std::snprintf(line, sizeof(line), "%s\"%s_buckets\": [", pad.c_str(), row.name.c_str());
      out += line;
      for (std::size_t i = 0; i < hist.buckets().size(); ++i) {
        std::snprintf(line, sizeof(line), "%s%llu", i == 0 ? "" : ", ",
                      static_cast<unsigned long long>(hist.buckets()[i]));
        out += line;
      }
      out += "]";
      continue;
    }
    if (row.value == std::floor(row.value) && std::abs(row.value) < 1e15) {
      std::snprintf(line, sizeof(line), "%s\"%s\": %.0f", pad.c_str(), row.name.c_str(),
                    row.value);
    } else {
      std::snprintf(line, sizeof(line), "%s\"%s\": %.6f", pad.c_str(), row.name.c_str(),
                    row.value);
    }
    out += line;
  }
  return out;
}

}  // namespace distscroll::obs
