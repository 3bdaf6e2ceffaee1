// Chrome-trace-event tracing plane: RAII spans, instants and counter samples
// recorded into lock-free per-thread buffers, flushed as Perfetto-loadable
// JSON ({"traceEvents":[...]}) by the grid drivers' --trace FILE flag
// (FEDHISYN_TRACE fallback; see exp/driver.hpp and docs/OBSERVABILITY.md).
//
// Two consumption modes share the same recording path:
//
//   sink mode        the coordinator process records for the whole sweep and
//                    write_chrome_trace() serialises everything at the end —
//                    its own events on pid 0, plus "foreign" events merged
//                    from dispatch workers on pid 1+slot (one Perfetto lane
//                    per worker, named via process_name metadata);
//   collection mode  a dispatch worker records per cell between
//                    collect_begin()/collect_end() and ships the drained
//                    spans back on the wire protocol's `telemetry` block
//                    (exp/dispatch.cpp) — it never writes a file itself.
//
// Determinism contract: tracing is pure observability.  Disabled (the
// default), every entry point is a branch on one relaxed atomic load —
// no allocation, no clock read, no lock.  Enabled, it may read the
// monotonic clock and heap-allocate thread buffers, but nothing it
// produces can reach result bytes: spans go to the trace file / the wire
// telemetry block, both of which the JSONL/CSV sinks exclude.  Every
// wall-clock read in the repo outside net::Deadline funnels through this
// file's now_us()/clock_seconds() seam, which carries the single
// `determinism: trace-clock` allowlist tag (tools/determinism_allowlist.txt).
//
// Recording is lock-free and single-writer: each thread owns a
// fixed-capacity buffer (allocated lazily on its first traced event) and
// publishes events with a release store of the count; drains acquire-load
// the count from another thread.  Draining therefore only observes events
// fully written, but it must run at a quiescent point (after a pool
// barrier / between dispatch cells) to observe *all* of them — which is
// where every drain in the repo sits.  A full buffer drops further events
// and counts the loss (reported as `dropped` in the trace metadata and the
// telemetry block) instead of reallocating.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fedhisyn::trace {

namespace detail {
// The one global the hot path touches; declared extern so enabled() inlines
// to a single relaxed load.  Observability only — allowlisted for the
// determinism linter's mutable-global rule.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True while tracing is recording.  The zero-overhead off-path check: one
/// relaxed atomic load, no call.
inline bool enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turn recording on/off.  Turning it on pins the process trace epoch (all
/// timestamps are microseconds since the first enable).  Idempotent.
void set_enabled(bool on);

/// Microseconds since the trace epoch.  Only meaningful while enabled();
/// callers must guard with enabled() so the off path never reads a clock.
std::int64_t now_us();

/// Monotonic seconds for timing *metadata* (per-cell seconds, the progress
/// ETA) that is printed to stderr or put on the wire but never written to a
/// result sink.  This is the clock seam: the only unconditional wall-clock
/// read outside net::Deadline, so the determinism allowlist stays one entry.
double clock_seconds();

/// One recorded event.  Name/category/argument-name pointers must be
/// string literals (or otherwise live for the process) — recording never
/// copies them.  `sarg` string *values* must also be stable; interned
/// strings from intern() qualify.
struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  char ph = 'X';  // 'X' complete span, 'i' instant, 'C' counter
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  const char* arg1_name = nullptr;
  std::int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::int64_t arg2 = 0;
  const char* sarg_name = nullptr;
  const char* sarg = nullptr;
};

/// Copy `text` into the process-lifetime intern pool and return a stable
/// pointer (the same pointer for the same text).  For dynamic names that
/// repeat — GEMM shape classes, counter names off the wire.  Takes a lock;
/// call only on enabled paths or cold paths.
const char* intern(const std::string& text);

/// RAII span: records a 'X' (complete) event covering its lifetime on the
/// calling thread's lane.  When tracing is off, construction and
/// destruction are branches on one atomic load each — no clock, no state.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat) {
    if (enabled()) begin(name, cat);
  }
  ~TraceSpan() {
    if (name_ != nullptr) end();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach up to two integer args and one string arg (all optional).
  /// No-ops when the span is not recording.
  void arg(const char* name, std::int64_t value) {
    if (name_ == nullptr) return;
    if (arg1_name_ == nullptr) {
      arg1_name_ = name;
      arg1_ = value;
    } else {
      arg2_name_ = name;
      arg2_ = value;
    }
  }
  void sarg(const char* name, const char* value) {
    if (name_ == nullptr) return;
    sarg_name_ = name;
    sarg_ = value;
  }

 private:
  void begin(const char* name, const char* cat);
  void end();

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t start_us_ = 0;
  const char* arg1_name_ = nullptr;
  std::int64_t arg1_ = 0;
  const char* arg2_name_ = nullptr;
  std::int64_t arg2_ = 0;
  const char* sarg_name_ = nullptr;
  const char* sarg_ = nullptr;
};

/// Record an 'i' (instant) event on the calling thread.  No-op when off.
void instant(const char* name, const char* cat);

/// Record a 'C' (counter) sample on the calling thread.  No-op when off.
void counter_sample(const char* name, std::int64_t value);

/// Record a complete span with explicit timestamps (for async lifecycles —
/// the dispatch plane's queue→feed→result cells — where RAII scoping does
/// not fit).  No-op when off.
void emit_complete(const char* name, const char* cat, std::int64_t ts_us,
                   std::int64_t dur_us, const char* arg1_name, std::int64_t arg1,
                   const char* arg2_name, std::int64_t arg2);

/// Merge one event from another process onto lane `pid` (1 + dispatch slot;
/// pid 0 is this process).  Strings are interned.  Coordinator-only, called
/// from the single-threaded dispatch loop.  No-op when off.
void emit_foreign(int pid, std::uint32_t tid, const std::string& name,
                  const std::string& cat, std::int64_t ts_us, std::int64_t dur_us);

/// Name lane `pid` (emitted as process_name metadata, shown as the track
/// group title in Perfetto).  Idempotent per pid.  No-op when off.
void set_lane_name(int pid, const std::string& name);

// ------------------------------------------------------- collection mode --

/// A drained event, decoupled from the per-thread buffers (collection mode
/// hands these to the wire codec).
struct CollectedSpan {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;  // relative to collect_begin()
  std::int64_t dur_us = 0;
};

/// Begin per-cell collection: enables tracing if needed, discards anything
/// recorded before this point, and pins the cell epoch.  Worker-side; the
/// caller runs cells strictly one at a time.
void collect_begin();

/// Drain everything recorded since collect_begin(): 'X' spans only (the
/// telemetry block ships spans; counters travel as registry deltas),
/// timestamps rebased to the cell epoch, capped at `max_spans` with the
/// overflow added to *dropped.  Runs at a quiescent point (the cell
/// finished; the pool is at its barrier).
std::vector<CollectedSpan> collect_end(std::size_t max_spans,
                                       std::uint64_t* dropped);

// --------------------------------------------------------------- flushing --

/// Serialise every recorded event (own lane pid 0 + merged foreign lanes)
/// as Chrome-trace JSON to `path`; check-fails if the file cannot be
/// written.  Call at a quiescent point (end of sweep).
void write_chrome_trace(const std::string& path);

/// Events recorded so far across all thread buffers (draining nothing).
/// Test hook: asserts the off path records nothing.
std::uint64_t recorded_event_count();

/// Events lost to full thread buffers so far.
std::uint64_t dropped_event_count();

}  // namespace fedhisyn::trace
