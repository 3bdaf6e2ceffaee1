// Shared command-line handling for the grid drivers (Table 1 / figure
// benches, examples, CLI).  Every driver built on the exp API accepts:
//
//   --threads N       worker-thread budget (FEDHISYN_THREADS env fallback);
//                     N must be >= 1
//   --grid-jobs N     concurrent grid cells (default 1); N must be >= 1
//   --dispatch MODE   thread | process | tcp: run cells on in-process worker
//                     threads (default), on a crash-isolated pool of worker
//                     processes, or on remote --serve workers over TCP;
//                     output is byte-identical in all three modes
//   --workers H:P,... remote worker endpoints for --dispatch tcp
//   --out PATH        per-cell results, JSONL by default, CSV if *.csv
//   --resume          scan an existing --out JSONL for finished cells (by
//                     spec key) and run only the rest; resumed lines are
//                     re-emitted verbatim, so the final file is
//                     byte-identical to an uninterrupted sweep
//   --quiet           suppress the per-cell progress lines on stderr, and
//                     (via FEDHISYN_QUIET, which child workers inherit) the
//                     dispatch workers' per-build cache log lines
//   --trace FILE      write a Chrome-trace/Perfetto JSON timeline of the
//                     sweep to FILE: executor batches, round waves, GEMM
//                     calls, build-cache builds and per-cell dispatch
//                     lifecycles, with dispatch workers' spans merged onto
//                     per-worker lanes (common/trace.hpp;
//                     docs/OBSERVABILITY.md).  Pure observability — result
//                     bytes are identical with or without it
//   --metrics-out FILE
//                     dump the process counter registry (cache hit/miss,
//                     retries, latency histograms; common/counters.hpp) as
//                     JSON after the sweep
//   --build-cache-mb M
//                     byte budget in MiB (fractional ok) of the shared
//                     BuiltExperiment cache (exp/build_cache.hpp); 0
//                     disables caching, unset = a default holding the full
//                     Table-1 sweep (FEDHISYN_BUILD_CACHE_MB, which child
//                     workers inherit; a remote --serve worker reads its
//                     *own* flag/env).  Never changes result bytes.
//   --gemm-kernel K   GEMM micro-kernel variant: auto (CPUID dispatch, the
//                     default) | generic | avx2 | avx512 | neon
//                     (FEDHISYN_GEMM_KERNEL, which child workers inherit).
//                     Bit-identical results either way; an unknown or
//                     unsupported forced variant fails at startup
//   --list-methods    print the registered algorithms (one description line
//                     each) and exit
//   --gemm-info       print the resolved GEMM dispatch state (selected
//                     variant, its register tile and tile grid, supported
//                     variants) and exit
//   Switches (--resume, --quiet, ...) take no value or one of
//   true|1|yes|false|0|no; any other value fails at startup.
//   --worker-cell     hidden: become a dispatch worker (protocol over the
//                     socketpair on stdin, see exp/dispatch.hpp); used by
//                     --dispatch=process to self-exec this binary
//   --serve [BIND:]PORT
//                     become a resident remote dispatch worker: listen on
//                     PORT (default bind 0.0.0.0; port 0 = ephemeral,
//                     announced on stdout) and serve --dispatch tcp
//                     coordinators until killed
//
// Grid-restriction flags:
//
//   --dataset a,b     restrict the dataset axis
//   --part 100,50     restrict participation %
//   --partition x,y   restrict partitions: iid | dir<beta> (e.g. dir0.3)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "data/partition.hpp"
#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

struct GridDriverOptions {
  std::size_t grid_jobs = 1;
  /// Empty = no results file.
  std::string out;
  /// Cell execution backend (--dispatch).
  CellBackend dispatch = CellBackend::kThread;
  /// Comma-separated remote worker endpoints for the tcp backend
  /// (--workers).
  std::string workers;
  /// Skip cells whose spec key already sits in the --out JSONL.
  bool resume = false;
  /// Suppress the per-cell progress lines on stderr.
  bool quiet = false;
  /// Chrome-trace JSON output path (--trace); empty = off.
  /// Non-empty enables trace recording for the whole run.
  std::string trace_out;
  /// Counter-registry JSON output path (--metrics-out); empty = off.
  std::string metrics_out;
};

/// Apply the flags shared by every grid driver: export --quiet /
/// --build-cache-mb / --gemm-kernel to their env vars (before the worker
/// branches, so workers see them; --gemm-kernel is validated immediately),
/// enter the hidden --worker-cell mode when requested, resize the global
/// pool for --threads, resolve --grid-jobs / --dispatch / --resume /
/// --quiet, capture --out, and handle --list-methods / --gemm-info (print
/// and exit).
GridDriverOptions handle_grid_flags(const Flags& flags);

/// Run a grid the standard way: honour --resume (scan `options.out` for
/// finished cells and run only the rest), stream each finished cell's JSONL
/// line to `options.out` as it completes (append-safe, so an interrupted
/// sweep is resumable), print per-cell progress with an ETA to stderr
/// (unless --quiet), and finally rewrite `options.out` atomically in spec
/// order — byte-identical across serial, --grid-jobs N, --dispatch=process
/// and --dispatch=tcp runs, interrupted or not.
///
/// Returns one CellResult per spec, in spec order.  Resumed cells carry the
/// headline metrics parsed back from the file but an empty per-round
/// history (the JSONL sink does not serialise trajectories).
std::vector<CellResult> run_grid(const std::vector<ExperimentSpec>& specs,
                                 const GridDriverOptions& options);

/// Comma-separated list flag: the flag's items when given and non-empty,
/// else `defaults`.
std::vector<std::string> list_flag(const Flags& flags, const std::string& key,
                                   std::vector<std::string> defaults);

/// --dataset restriction.
std::vector<std::string> datasets_from_flags(const Flags& flags,
                                             std::vector<std::string> defaults);

/// --part restriction (percent values: "100,50,10").  Returns fractions in
/// [0, 1].
std::vector<double> participations_from_flags(const Flags& flags,
                                              std::vector<double> defaults);

/// --partition restriction: tokens "iid" or "dir<beta>" ("dir0.3").
std::vector<data::PartitionConfig> partitions_from_flags(
    const Flags& flags, std::vector<data::PartitionConfig> defaults);

}  // namespace fedhisyn::exp
