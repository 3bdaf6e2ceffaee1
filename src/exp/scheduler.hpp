// GridScheduler: runs a vector of ExperimentSpecs (grid cells) concurrently.
//
// Two-level thread budget: `jobs` cells run at once (--grid-jobs, default
// 1 = serial), each on its own worker thread with a private
// ParallelExecutor of floor(total_threads / jobs) threads bound as
// ParallelExecutor::current() — so a cell's inner parallel loops
// (training waves, GEMM, evaluation) fan out on the cell's pool and
// concurrent cells never contend for the global pool's single job slot.
// total_threads defaults to the global pool size (FEDHISYN_THREADS /
// --threads).
//
// Determinism: a cell's computation depends only on its spec (per-cell
// seeding comes from spec.build.seed / spec.opts.seed, and every kernel is
// bit-identical across thread counts), and results are collected by spec
// index — so a --grid-jobs N run produces byte-identical output to a serial
// sweep.
//
// Builds are deduped through the shared exp::BuildCache (build_cache.hpp):
// cells with equal spec.build_key() share one BuiltExperiment (e.g. Table 1
// runs 7 methods per build), LRU-evicted under the FEDHISYN_BUILD_CACHE_MB
// byte budget — the same class the dispatch workers use, so every backend
// has identical caching semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/trace.hpp"
#include "core/runner.hpp"
#include "exp/spec.hpp"

namespace fedhisyn::exp {

/// One trace span a dispatch worker recorded while running a cell
/// (common/trace.hpp collection mode), shipped back on the wire protocol's
/// `telemetry` block.  Timestamps are microseconds relative to the cell's
/// start on the worker; the coordinator rebases them onto its own timeline
/// and files them under the worker's Perfetto lane (pid 1 + slot).
using CellTelemetrySpan = trace::CollectedSpan;

/// Worker-side observability for one dispatched cell: the spans recorded
/// while it ran (empty unless the coordinator requested tracing) plus the
/// cell's counter-registry deltas (always reported — counting is free; the
/// worker's build_cache.hits/misses/evictions for this cell ride here).
/// Like `seconds`, the JSONL/CSV sinks exclude it, so output files stay
/// byte-identical traced vs untraced, warm vs cold and across backends.
/// Thread-backend cells leave it empty: they record into the coordinator's
/// own trace buffers and counter registry instead.
struct CellTelemetry {
  std::vector<CellTelemetrySpan> spans;
  /// Spans lost to the worker's buffer cap or the wire cap.
  std::uint64_t dropped = 0;
  /// Per-cell counter deltas, sorted by name (see common/counters.hpp).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Everything one finished cell produced.  Wall-clock seconds and the
/// telemetry block are reported for humans only — result sinks exclude them
/// so output files stay byte-stable across thread counts, machines, cache
/// states and tracing on/off.
struct CellResult {
  ExperimentSpec spec;
  core::ExperimentResult result;
  double seconds = 0.0;
  CellTelemetry telemetry;
};

/// Optional extras for single-cell drivers (the CLI, quickstart).
struct CellHooks {
  /// Forwarded to ExperimentRunner::set_on_round.
  std::function<void(const core::RoundRecord&)> on_round;
  /// When non-null, receives the algorithm's final global weights.
  std::vector<float>* final_weights = nullptr;
};

/// Build the experiment a spec describes (data, partition, model, fleet).
std::shared_ptr<const core::BuiltExperiment> build_for(const ExperimentSpec& spec);

/// Run one cell against an already-built experiment.
CellResult run_cell(const ExperimentSpec& spec, const core::BuiltExperiment& built,
                    const CellHooks& hooks = {});

/// Convenience: build then run.
CellResult run_cell(const ExperimentSpec& spec, const CellHooks& hooks = {});

/// How GridScheduler executes cells:
///   kThread   worker threads in this process (the default);
///   kProcess  a crash-isolated pool of self-exec'd worker processes
///             (exp/dispatch.hpp) — a crashing worker (segfault, OOM kill)
///             cannot take the sweep down, and results stay byte-identical;
///             a worker that *hangs* is killed and retried too once
///             FEDHISYN_CELL_TIMEOUT_S arms the per-cell deadline;
///   kTcp      remote workers started with `--serve [bind:]port` on other
///             machines (--workers host:port,...), same protocol and
///             retry/timeout semantics as kProcess.
enum class CellBackend { kThread, kProcess, kTcp };

class GridScheduler {
 public:
  /// The one set of run options: the grid drivers fill it from --grid-jobs,
  /// --dispatch and --workers (exp::handle_grid_flags), and every backend
  /// reads it directly — the process/tcp dispatch loop included.
  struct Options {
    /// Concurrent cells (--grid-jobs); clamped to the number of cells.  The
    /// process backend runs this many local workers.
    std::size_t jobs = 1;
    /// Thread budget split across the running cells (each process worker
    /// gets its slice as FEDHISYN_THREADS); 0 = the global pool's current
    /// size.
    std::size_t total_threads = 0;
    /// Cell execution backend (--dispatch).
    CellBackend backend = CellBackend::kThread;
    /// Process/tcp backends: tries per cell before the sweep fails (0
    /// resolves 1 + FEDHISYN_WORKER_RETRIES).
    int max_attempts = 0;
    /// Process backend: the binary to self-exec (empty = the running binary).
    std::string worker_binary;
    /// Tcp backend: remote worker endpoints ("host:port,host:port,...", the
    /// --workers value), one slot each; check-fails when empty.  A host that
    /// cannot be reached is retired and its cells reassigned.
    std::string worker_hosts;
    /// Process/tcp backends: per-cell deadline in seconds; < 0 resolves
    /// FEDHISYN_CELL_TIMEOUT_S, 0 disables.  A worker past the deadline is
    /// cut off and the cell retried under the same accounting as a crash.
    double cell_timeout_s = -1.0;
    /// Tcp backend: initial connects are retried until this budget elapses
    /// (workers may still be starting); a *re*connect after a death gets one
    /// try.
    double connect_timeout_s = 10.0;
    /// Progress callback, invoked once per finished cell (serialised, in
    /// completion order): (cells done, cells total, the cell).
    std::function<void(std::size_t, std::size_t, const CellResult&)> on_cell;
  };

  GridScheduler() : GridScheduler(Options{}) {}
  explicit GridScheduler(Options options);

  /// Run every spec; results[i] corresponds to specs[i] regardless of
  /// completion order.  The first cell exception is rethrown after all
  /// workers drain.
  std::vector<CellResult> run(const std::vector<ExperimentSpec>& specs) const;

  /// Jobs the scheduler will actually use for a grid of `cells` cells.
  std::size_t resolved_jobs(std::size_t cells) const;
  /// Inner per-cell threads for the given outer job count.
  std::size_t inner_threads(std::size_t jobs) const;

 private:
  Options options_;
};

}  // namespace fedhisyn::exp
