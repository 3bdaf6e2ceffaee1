// Dispatch-overhead microbench: what does process-level (and socket-level)
// grid dispatch cost per cell, compared to the in-process thread backend?
//
// Runs a sweep of deliberately tiny cells (so per-cell compute is small and
// the dispatch machinery dominates) through GridScheduler three times —
// thread backend, process backend, and the tcp backend against two --serve
// workers self-exec'd on loopback — and reports wall time, cells/sec and the
// derived per-cell dispatch overhead.  The process and tcp timings are not
// like for like: the --serve workers start before the timed region, so
// tcp/w2 excludes worker start-up, while process/j2 pays for spawning its
// workers inside it.  A fourth sub-bench measures the worker-side
// multi-build LRU cache (exp/build_cache.hpp): a build-interleaved 2-build
// sweep of build-heavy cells on one process worker, cold
// (FEDHISYN_BUILD_CACHE_MB=0) vs warm (default budget), where the affinity
// pass + resident cache must beat rebuild-per-cell by >= 2x.
// Emits machine-readable BENCH_dispatch.json; CI gates cells_per_sec (and
// cells_per_sec_warm for the cache entry) against
// bench/baselines/BENCH_dispatch.json via tools/bench_gate.py (the floors
// are curated far below any healthy run, so the gate catches a dispatcher
// that starts respawning workers per cell, serialising the pool or
// rebuilding datasets per request, not runner-hardware noise).
//
//   ./bench_dispatch_overhead [--out BENCH_dispatch.json] [--cells N]
//                             [--jobs N] [--repeat N]
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/hostinfo.hpp"
#include "exp/driver.hpp"
#include "tensor/gemm_tune.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "../tests/serve_worker.hpp"

namespace {

double run_backend(const std::vector<fedhisyn::exp::ExperimentSpec>& specs,
                   fedhisyn::exp::GridScheduler::Options options, int repeat) {
  using namespace fedhisyn;
  double best = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    exp::GridScheduler(options).run(specs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, wall);
  }
  return best;
}

double run_backend(const std::vector<fedhisyn::exp::ExperimentSpec>& specs,
                   fedhisyn::exp::CellBackend backend, std::size_t jobs, int repeat) {
  fedhisyn::exp::GridScheduler::Options options;
  options.jobs = jobs;
  options.backend = backend;
  return run_backend(specs, std::move(options), repeat);
}

// Reached through run_driver, which has applied --worker-cell / --serve /
// --threads; the sweeps below set their own backends.
int run(const fedhisyn::Flags& flags, const fedhisyn::exp::GridDriverOptions&) {
  using namespace fedhisyn;
  // The sweeps below use many distinct builds; keep the workers' per-build
  // cache log lines out of the bench output.
  ::setenv("FEDHISYN_QUIET", "1", /*overwrite=*/1);

  const std::size_t cells = static_cast<std::size_t>(flags.get_long("cells", 12, 1));
  const std::size_t jobs = static_cast<std::size_t>(flags.get_long("jobs", 2, 1));
  const int repeat = static_cast<int>(flags.get_long("repeat", 1, 1, INT_MAX));
  const std::string out_path = flags.get("out", "BENCH_dispatch.json");

  // Tiny cells: 4 devices, 1 round, a handful of samples — compute is a few
  // milliseconds, so spawn + wire-codec + pipe costs are what get measured.
  exp::ExperimentGrid grid;
  grid.base().build.scale.devices = 4;
  grid.base().build.scale.train_samples_per_device = 10;
  grid.base().build.scale.test_samples = 40;
  grid.base().build.scale.rounds = 1;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 1;
  grid.base().method = "FedAvg";
  grid.base().target = 0.999f;
  std::vector<std::uint64_t> seeds(cells);
  for (std::size_t i = 0; i < cells; ++i) seeds[i] = 100 + i;
  grid.seeds(seeds);
  const auto specs = grid.expand();

  const double thread_wall =
      run_backend(specs, exp::CellBackend::kThread, jobs, repeat);
  const double process_wall =
      run_backend(specs, exp::CellBackend::kProcess, jobs, repeat);

  // Tcp backend: two resident --serve workers on loopback — the wire and
  // framing costs of a real multi-host sweep without the network in between.
  // The workers start here, outside run_backend's timed region.
  double tcp_wall;
  {
    exp::ServeWorker worker_a;
    exp::ServeWorker worker_b;
    exp::GridScheduler::Options options;
    options.backend = exp::CellBackend::kTcp;
    options.worker_hosts = worker_a.endpoint() + "," + worker_b.endpoint();
    tcp_wall = run_backend(specs, std::move(options), repeat);
  }

  // Warm-vs-cold build cache: a build-interleaved 2-build sweep on ONE
  // process worker, with build-heavy cells (32 devices x 64 samples to
  // generate and partition, but participation 1/8 so only 4 devices train
  // one round) — the regime the multi-build LRU cache exists for.  Cold
  // disables the cache (FEDHISYN_BUILD_CACHE_MB=0, inherited by the worker):
  // every cell rebuilds.  Warm uses the default budget: the coordinator's
  // affinity pass plus the resident cache reduce the interleave to one build
  // per key.
  exp::ExperimentGrid cache_grid;
  cache_grid.base().build.scale.devices = 32;
  cache_grid.base().build.scale.train_samples_per_device = 64;
  cache_grid.base().build.scale.test_samples = 64;
  cache_grid.base().build.scale.rounds = 1;
  cache_grid.base().build.mlp_hidden = {8};
  cache_grid.base().opts.local_epochs = 1;
  cache_grid.base().opts.batch_size = 32;
  cache_grid.base().opts.participation = 0.125;
  cache_grid.base().opts.clusters = 1;
  cache_grid.base().method = "FedAvg";
  cache_grid.base().target = 0.999f;
  cache_grid.base().with_seed(200);
  const auto cache_cell_a = cache_grid.expand().at(0);
  cache_grid.base().with_seed(201);
  const auto cache_cell_b = cache_grid.expand().at(0);
  constexpr std::size_t kCacheCells = 8;
  std::vector<exp::ExperimentSpec> cache_specs;
  cache_specs.reserve(kCacheCells);
  for (std::size_t i = 0; i < kCacheCells; ++i) {
    cache_specs.push_back(i % 2 == 0 ? cache_cell_a : cache_cell_b);
  }
  ::setenv("FEDHISYN_BUILD_CACHE_MB", "0", /*overwrite=*/1);
  const double cold_wall =
      run_backend(cache_specs, exp::CellBackend::kProcess, 1, repeat);
  ::unsetenv("FEDHISYN_BUILD_CACHE_MB");
  const double warm_wall =
      run_backend(cache_specs, exp::CellBackend::kProcess, 1, repeat);

  const double thread_cps = static_cast<double>(cells) / thread_wall;
  const double process_cps = static_cast<double>(cells) / process_wall;
  const double tcp_cps = static_cast<double>(cells) / tcp_wall;
  const double cold_cps = static_cast<double>(kCacheCells) / cold_wall;
  const double warm_cps = static_cast<double>(kCacheCells) / warm_wall;
  const double warm_over_cold = cold_wall / warm_wall;
  const double overhead_ms =
      (process_wall - thread_wall) / static_cast<double>(cells) * 1000.0;
  const double tcp_overhead_ms =
      (tcp_wall - thread_wall) / static_cast<double>(cells) * 1000.0;

  std::printf("== dispatch overhead (%zu cells, %zu jobs, best of %d) ==\n", cells,
              jobs, repeat);
  std::printf("thread  backend: %7.3fs wall, %8.1f cells/sec\n", thread_wall,
              thread_cps);
  std::printf("process backend: %7.3fs wall, %8.1f cells/sec, %+.2f ms/cell dispatch "
              "overhead\n",
              process_wall, process_cps, overhead_ms);
  std::printf("tcp     backend: %7.3fs wall, %8.1f cells/sec, %+.2f ms/cell dispatch "
              "overhead (2 loopback --serve workers, started before the "
              "timed region)\n",
              tcp_wall, tcp_cps, tcp_overhead_ms);
  std::printf("build cache (interleaved 2-build sweep, %zu cells, 1 worker):\n",
              kCacheCells);
  std::printf("  cold (cache off): %7.3fs wall, %8.1f cells/sec\n", cold_wall,
              cold_cps);
  std::printf("  warm (default):   %7.3fs wall, %8.1f cells/sec  (%.2fx cold)\n",
              warm_wall, warm_cps, warm_over_cold);

  char buf[256];
  std::string json = "{\n  \"schema\": \"fedhisyn-dispatch-overhead/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  std::snprintf(buf, sizeof(buf), "  \"cells\": %zu,\n  \"jobs\": %zu,\n", cells, jobs);
  json += buf;
  json += "  \"entries\": [\n";
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"thread/j%zu\", \"backend\": \"thread\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f},\n",
                jobs, thread_wall, thread_cps);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"process/j%zu\", \"backend\": \"process\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f, "
                "\"overhead_ms_per_cell\": %.3f},\n",
                jobs, process_wall, process_cps, overhead_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"tcp/w2\", \"backend\": \"tcp\", "
                "\"wall_s\": %.4f, \"cells_per_sec\": %.2f, "
                "\"overhead_ms_per_cell\": %.3f},\n",
                tcp_wall, tcp_cps, tcp_overhead_ms);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"cache/2build\", \"backend\": \"process\", "
                "\"wall_s_cold\": %.4f, \"wall_s_warm\": %.4f, "
                "\"cells_per_sec_cold\": %.2f, \"cells_per_sec_warm\": %.2f, "
                "\"warm_over_cold\": %.3f}\n",
                cold_wall, warm_wall, cold_cps, warm_cps, warm_over_cold);
  json += buf;
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fedhisyn::exp::run_driver(argc, argv,
                                   {"out=FILE", "cells=N", "jobs=N", "repeat=N"}, run);
}
