// Shared command-line handling for every binary (Table 1 / figure benches,
// examples, CLI): one entry point, run_driver, checks argv against the
// binary's declared flags before any work starts.  docs/CONFIG.md describes
// each shared flag; tools/lint_docs.py keeps its table equal to the shared
// declarations in driver.cpp and below.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "data/partition.hpp"
#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

struct GridDriverOptions {
  /// How cells run: --grid-jobs, --dispatch and --workers land here
  /// (run_grid installs its own progress `on_cell`).
  GridScheduler::Options scheduler;
  /// Empty = no results file.
  std::string out;
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
/// pool for --threads, resolve --grid-jobs / --dispatch / --workers /
/// --resume / --quiet, capture --out, and handle --list-methods /
/// --gemm-info (print and exit).
GridDriverOptions handle_grid_flags(const Flags& flags);

/// The flags run_grid acts on, then `own`: the declaration of a binary whose
/// sweep runs through run_grid.
std::vector<FlagDecl> grid_flags(std::initializer_list<FlagDecl> own = {});

/// The main of every binary: parse argv and check it against the shared
/// flags (--help, --threads, --gemm-kernel, ...) plus `own_flags`; print the
/// declared flags for --help, else apply handle_grid_flags and return
/// `body(flags, options)`.  A CheckError from any of it — an undeclared,
/// repeated or valueless flag, a positional argument, a bad value, an
/// unknown method, a failed sweep — prints one "error: <what>" line on
/// stderr and returns 1 instead of aborting.
int run_driver(int argc, char** argv, std::vector<FlagDecl> own_flags,
               int (*body)(const Flags& flags, const GridDriverOptions& options));

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

/// The restriction flags read by datasets_from_flags, participations_from_flags
/// and partitions_from_flags; a binary declares those it reads.
inline constexpr FlagDecl kDatasetFlag = "dataset=a,b";
inline constexpr FlagDecl kPartFlag = "part=100,50";
inline constexpr FlagDecl kPartitionFlag = "partition=x,y";

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
