// Process-wide metrics registry: named monotonic counters and log-bucketed
// histograms, dumped as a JSON summary by the grid drivers' --metrics-out
// flag (schema fedhisyn-metrics/1; see docs/OBSERVABILITY.md for the
// catalog of names the repo instruments).
//
// Unlike tracing (common/trace.hpp), the registry is always on: an
// increment is one relaxed atomic add, a histogram record a handful — cheap
// enough that cache hit/miss, retry and latency accounting never need a
// flag.  Hot call sites amortise the by-name lookup with a function-local
// static reference:
//
//   static counters::Counter& hits = counters::counter("build_cache.hits");
//   hits.add(1);
//
// Determinism contract: counter *values* may derive from wall-clock reads
// (latency histograms) but only ever reach stderr progress lines, the
// --metrics-out file and the dispatch wire's telemetry block — never the
// JSONL/CSV result sinks.  Dumps iterate a sorted map, so two runs that
// performed identical work produce identical metrics files.
//
// The dispatch plane ships per-cell counter *deltas* from worker to
// coordinator (snapshot() before/after each cell), which the coordinator
// adds into its own registry — merging is purely additive, so a multi-host
// sweep's metrics file totals the whole fleet without double-counting.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fedhisyn::counters {

/// A monotonic counter.  Obtained from counter(); never destroyed.
class Counter {
 public:
  void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A histogram over unsigned 64-bit samples (the repo records microseconds)
/// with power-of-two buckets: bucket b counts samples in [2^(b-1), 2^b)
/// (bucket 0 counts zero).  A quantile finds the bucket holding its rank and
/// interpolates by rank within it, between max(bucket lower bound, min())
/// and min(bucket upper bound, max()): estimates stay inside the bucket
/// (within 2x of the true sample), never leave [min(), max()], and separate
/// p50 from p95 even when every sample shares one bucket.  Exact
/// min/max/mean come from the dedicated fields.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t sample);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// The q-quantile (q in [0,1]), interpolated within its bucket as
  /// described above; 0 when empty.
  std::uint64_t quantile(double q) const;
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// The counter registered under `name`, created on first use.  Takes the
/// registry lock — cache the reference at hot call sites.
Counter& counter(const std::string& name);

/// The histogram registered under `name`, created on first use.
Histogram& histogram(const std::string& name);

/// Snapshot of every counter (sorted by name).  The dispatch workers diff
/// two snapshots to put per-cell deltas on the wire.
std::map<std::string, std::uint64_t> snapshot();

/// after - before, keeping only strictly positive deltas (names in `after`
/// only count from zero).  Counters are monotonic, so this is exact.
std::vector<std::pair<std::string, std::uint64_t>> delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);

/// Dump every counter and histogram as a fedhisyn-metrics/1 JSON document
/// to `path` (sorted by name; check-fails when unwritable).
void write_metrics(const std::string& path);

}  // namespace fedhisyn::counters
