#include "common/counters.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/thread_annotations.hpp"

namespace fedhisyn::counters {

namespace {

/// Bucket index for a sample: 0 for 0, else 1 + floor(log2(sample)) — so
/// bucket b > 0 covers [2^(b-1), 2^b).
std::size_t bucket_index(std::uint64_t sample) {
  if (sample == 0) return 0;
  std::size_t b = 0;
  while (sample != 0) {
    sample >>= 1;
    ++b;
  }
  return b < Histogram::kBuckets ? b : Histogram::kBuckets - 1;
}

/// std::map keys the registries so every dump iterates in sorted order.
/// Values are raw pointers and never freed: counters hand out references
/// cached in function-local statics, so they must outlive every user.
struct RegistryState {
  Mutex mutex;
  std::map<std::string, Counter*> counters FEDHISYN_GUARDED_BY(mutex);
  std::map<std::string, Histogram*> histograms FEDHISYN_GUARDED_BY(mutex);
};

RegistryState& state() {
  static RegistryState* instance = new RegistryState();
  return *instance;
}

}  // namespace

void Histogram::record(std::uint64_t sample) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  buckets_[bucket_index(sample)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (sample < seen &&
         !min_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (sample > seen &&
         !max_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == ~std::uint64_t{0} ? 0 : value;
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile sample (1-based), then walk buckets to it.
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = bucket(b);
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // The bucket's samples are taken as evenly spread over its range,
    // narrowed by the exact min and max: lo is exact when the bucket holds
    // the min, hi when it holds the max.
    const std::uint64_t lower = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    const std::uint64_t upper = b == 0               ? 0
                                : b + 1 == kBuckets ? ~std::uint64_t{0}
                                                    : (std::uint64_t{1} << b) - 1;
    const std::uint64_t lo = std::max(lower, min());
    const std::uint64_t hi = std::max(lo, std::min(upper, max()));
    if (in_bucket == 1) {
      // A lone sample is the max if the max falls in this bucket, else lo
      // (exact when it is the min).
      return max() <= upper ? hi : lo;
    }
    const double at = static_cast<double>(rank - seen - 1) /
                      static_cast<double>(in_bucket - 1);
    const auto offset = static_cast<std::uint64_t>(static_cast<double>(hi - lo) * at);
    return std::min(hi, lo + offset);
  }
  return max();
}

Counter& counter(const std::string& name) {
  RegistryState& reg = state();
  MutexLock lock(reg.mutex);
  Counter*& slot = reg.counters[name];
  if (slot == nullptr) slot = new Counter();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  RegistryState& reg = state();
  MutexLock lock(reg.mutex);
  Histogram*& slot = reg.histograms[name];
  if (slot == nullptr) slot = new Histogram();
  return *slot;
}

std::map<std::string, std::uint64_t> snapshot() {
  std::map<std::string, std::uint64_t> values;
  RegistryState& reg = state();
  MutexLock lock(reg.mutex);
  for (const auto& [name, counter] : reg.counters) {
    values[name] = counter->get();
  }
  return values;
}

std::vector<std::pair<std::string, std::uint64_t>> delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::vector<std::pair<std::string, std::uint64_t>> deltas;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it != before.end() ? it->second : 0;
    if (value > base) deltas.emplace_back(name, value - base);
  }
  return deltas;
}

void write_metrics(const std::string& path) {
  // Names are escaped: worker counter names arrive off the wire.
  std::string out = "{\n  \"schema\": \"fedhisyn-metrics/1\",\n  \"counters\": {";
  RegistryState& reg = state();
  MutexLock lock(reg.mutex);
  bool first = true;
  for (const auto& [name, counter] : reg.counters) {
    out += first ? "\n    \"" : ",\n    \"";
    out += json::escape(name) + "\": " + std::to_string(counter->get());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : reg.histograms) {
    out += first ? "\n    \"" : ",\n    \"";
    out += json::escape(name) + "\": {\"count\": " + std::to_string(histogram->count()) +
           ", \"sum\": " + std::to_string(histogram->sum()) +
           ", \"min\": " + std::to_string(histogram->min()) +
           ", \"max\": " + std::to_string(histogram->max()) +
           ", \"p50\": " + std::to_string(histogram->quantile(0.5)) +
           ", \"p95\": " + std::to_string(histogram->quantile(0.95)) + "}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";

  std::FILE* file = std::fopen(path.c_str(), "w");
  FEDHISYN_CHECK_MSG(file != nullptr, "cannot write metrics file " << path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), file);
  const int closed = std::fclose(file);
  FEDHISYN_CHECK_MSG(written == out.size() && closed == 0,
                     "short write on metrics file " << path);
}

}  // namespace fedhisyn::counters
