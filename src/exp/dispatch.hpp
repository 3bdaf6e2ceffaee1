// Process- and host-level grid dispatch: crash-isolated worker pools behind
// GridScheduler's CellBackend seam (--dispatch=process|tcp).
//
// One dispatch loop, one worker link: GridScheduler::run hands its own
// Options to run_on_workers, and every worker is a stream socket that
// carries the same newline-JSON protocol.  Local workers (--dispatch
// process): the parent self-execs the current binary in a hidden
// `--worker-cell` mode (every grid driver reaches it through
// exp::handle_grid_flags) with the child's stdin/stdout on one end of a Unix
// socketpair, and keeps a pool of persistent workers.  Remote workers
// (--dispatch tcp): the coordinator connects to workers started with
// `--serve [bind:]port` on other machines.  The wire codec never assumed
// shared memory, a filesystem or a machine, so going multi-host only changes
// how the socket is obtained.
//
// Cells travel as one line of JSON (ExperimentSpec::to_json), results come
// back as one line of JSON, the parent collects in spec order — so serial,
// --grid-jobs N, --dispatch process and --dispatch tcp output files are
// byte-identical.
//
// Failure handling (same accounting for local and remote workers):
//   * crash — a worker that segfaults/OOMs or drops its connection mid-cell:
//     the cell is retried on a fresh worker, up to `max_attempts` total
//     tries (1 + FEDHISYN_WORKER_RETRIES; retries default 2, so 3 tries).  A
//     local child that died is respawned.
//   * hang — with FEDHISYN_CELL_TIMEOUT_S set, a worker that exceeds the
//     per-cell deadline has its socket shut down (a local child is also
//     SIGKILLed) and the cell is retried exactly like a crash.  Default: no
//     deadline.
//   * dead host — a remote worker whose connection cannot be re-established
//     is retired; its cell is reassigned to the remaining workers.
//   * deterministic failure — the worker replies ok:false (e.g. an unknown
//     method): rethrown in the parent without retry, like the thread
//     backend.
//
// Wire protocol, revision 2 (one JSON object per line, floats exact via
// %.9g/%.17g):
//   worker -> parent  {"hello":"fedhisyn-worker","proto":2}   (on connect)
//   parent -> worker  {"attempt":A,"trace":0|1,"spec":{...}}
//   worker -> parent  {"ok":true,"seconds":S,
//                      "telemetry":{"dropped":D,
//                                   "spans":[[name,cat,tid,ts,dur],...],
//                                   "counters":{"name":delta,...}},
//                      "algorithm":"...","final":F,
//                      "best":B,"comm":C|null,"rounds_to_target":R|null,
//                      "history":[[round,acc,comm,d2d],...]}
//   worker -> parent  {"ok":false,"error":"..."}
// The hello line lets the coordinator reject a non-worker endpoint — or a
// worker of another protocol revision — instead of feeding specs into the
// void, and delays dispatch to a freshly (re)connected worker until it is
// actually serving: a reconnect to a wedged host parks until the host
// recovers instead of eating retries.  The `telemetry` block is the
// worker's observability for the cell: spans when `trace` asked for them,
// and the cell's counter-registry deltas always — the worker's build-cache
// hits, misses and evictions travel there as build_cache.* deltas (see
// exp/build_cache.hpp).  Like `seconds` it lands in CellResult but never in
// the result sinks, so output files stay byte-identical warm vs cold.
//
// Build affinity: when several cells are pending, the coordinator prefers
// handing a worker the earliest pending cell whose build_key() matches the
// worker's previous cell (its cache holds that build resident), falling
// back to strict spec order.  Assignment order is a scheduling detail;
// collection stays in spec index order, so output bytes are unaffected.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/net.hpp"
#include "exp/scheduler.hpp"

namespace fedhisyn::exp {

/// FEDHISYN_CELL_TIMEOUT_S when set to a positive number of (possibly
/// fractional) seconds, else 0 — meaning "no per-cell deadline".
double cell_timeout_from_env();

/// 1 + FEDHISYN_WORKER_RETRIES (retries default 2, so 3 total tries); a
/// negative value check-fails, naming the variable.
int max_attempts_from_env();

/// Remote worker endpoints: `list` ("host:port,..." — the --workers value)
/// parsed by net::parse_host_list.  Check-fails when `list` is empty.
std::vector<net::HostPort> worker_endpoints(const std::string& list);

/// The process and tcp backends of GridScheduler::run: run every spec on a
/// worker pool, results[i] corresponding to specs[i].  kProcess spawns
/// `jobs` local workers (clamped to the number of cells) with
/// FEDHISYN_THREADS=`threads_per_worker` (0 = inherit the parent's env);
/// kTcp opens one slot per `options.worker_hosts` endpoint.  Retries,
/// deadlines and connect budgets follow `options` (see GridScheduler::Options).
/// Check-fails when no worker can be reached at all, or when every worker
/// dies with cells still outstanding.
std::vector<CellResult> run_on_workers(const GridScheduler::Options& options,
                                       std::size_t jobs, std::size_t threads_per_worker,
                                       const std::vector<ExperimentSpec>& specs);

/// Entry point of the hidden --worker-cell mode: send the hello line, then
/// read spec lines from stdin, run each cell and answer with one result line
/// per cell, until EOF.  Stdin is the parent's socketpair end and carries
/// both directions; stdout is re-routed to stderr so stray library prints
/// cannot corrupt a response.  Returns the process exit code.  Reached via
/// exp::handle_grid_flags in every grid driver, or directly from a custom
/// main (see tests/worker_main.cpp).
int worker_cell_main();

/// Entry point of --serve [bind:]port: announce the bound endpoint on stdout
/// as "fedhisyn-serve: listening on <host>:<port>", then accept coordinator
/// connections one at a time, serving each with the same loop as
/// --worker-cell until the peer disconnects.  The worker is resident: its
/// multi-build LRU cache (exp/build_cache.hpp, budget
/// FEDHISYN_BUILD_CACHE_MB / --build-cache-mb) survives across connections,
/// so consecutive sweeps over the same builds skip every rebuild.  Runs
/// until killed.
int serve_main(const std::string& bind_spec);

}  // namespace fedhisyn::exp
