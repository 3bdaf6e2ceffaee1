// Environment-variable helpers shared by the bench harnesses.
//
// Knobs recognised across the library:
//   FEDHISYN_FULL=1          paper-scale experiment sizes (see presets.hpp)
//   FEDHISYN_THREADS=N       worker-pool size (see common/parallel.hpp)
//   FEDHISYN_GRID_JOBS=N     concurrent grid cells (see exp/scheduler.hpp)
//   FEDHISYN_DISPATCH=thread|process|tcp
//                            grid cell backend: in-process worker threads
//                            (default), a crash-isolated pool of worker
//                            processes, or remote --serve workers over TCP
//                            (exp/dispatch.hpp).  Output files are
//                            byte-identical in all three modes.
//   FEDHISYN_WORKERS=host:port,...
//                            worker endpoints for the tcp backend (fallback
//                            for --workers); each host runs this binary in
//                            --serve mode.
//   FEDHISYN_WORKER_RETRIES=N
//                            extra attempts for a grid cell whose dispatch
//                            worker crashed, hung past the cell timeout or
//                            dropped its connection (default 2, i.e. 3 tries
//                            total — the same numbers dispatch.hpp and the
//                            README state).
//   FEDHISYN_CELL_TIMEOUT_S=S
//                            per-cell deadline for the process/tcp dispatch
//                            backends (fractional seconds; default off): a
//                            worker that exceeds it has its socket shut down
//                            (a local child is also killed) and the cell is
//                            retried under the same accounting as a crash.
//                            A plain number only — "5m" check-fails rather
//                            than meaning 5 seconds.
//   FEDHISYN_GEMM_KERNEL=auto|generic|avx2|avx512|neon
//                            GEMM micro-kernel variant (tensor/gemm_tune.hpp).
//                            "auto" (the default) picks the best ISA the CPU
//                            reports; a named variant forces it, with its one
//                            register tile (failing loudly when unknown or
//                            unsupported).  Every variant produces
//                            bit-identical results.
//   FEDHISYN_BUILD_CACHE_MB=M
//                            byte budget (MiB, fractional allowed) of the
//                            BuiltExperiment cache every execution backend
//                            shares (exp/build_cache.hpp).  0 disables
//                            caching; unset = a default sized to hold the
//                            full Table-1 sweep.  Caching changes when
//                            builds happen, never result bytes.
//   FEDHISYN_QUIET=1         suppress the dispatch workers' per-build cache
//                            log lines on stderr (--quiet sets this so child
//                            workers inherit it).
//   FEDHISYN_TRACE=FILE      write a Chrome-trace/Perfetto JSON timeline of
//                            the run to FILE (fallback for the grid drivers'
//                            --trace flag; see common/trace.hpp and
//                            docs/OBSERVABILITY.md).  Tracing is pure
//                            observability: result files are byte-identical
//                            traced or not.
#pragma once

#include <string>

namespace fedhisyn {

/// True when FEDHISYN_FULL=1: benches run paper-scale round counts instead of
/// the laptop-scale defaults.
bool full_scale_enabled();

/// Parse `text` as one whole number: anything else ("4x", "abc", "", out of
/// range) check-fails with a message naming `name` (an env var or a flag).
/// The shared strict parser behind env_long/env_double and Flags.
long parse_long(const std::string& name, const std::string& text);
double parse_double(const std::string& name, const std::string& text);

/// Integer env var with default: `fallback` when unset or empty; any other
/// value that is not entirely an integer check-fails, naming the variable.
long env_long(const std::string& name, long fallback);

/// Floating-point env var with default: `fallback` when unset or empty; any
/// other value that is not entirely a number check-fails, naming the
/// variable.
double env_double(const std::string& name, double fallback);

/// FEDHISYN_QUIET: true when set to anything but "0"/"off"/"false"/empty —
/// the dispatch workers then skip their per-build cache log lines.
bool quiet_from_env();

/// FEDHISYN_GEMM_KERNEL: the requested GEMM kernel variant name ("auto" when
/// unset; see tensor/gemm_tune.hpp).
std::string gemm_kernel_from_env();

}  // namespace fedhisyn
