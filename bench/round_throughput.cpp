// Async round throughput of the RoundGraph wavefront engine for the
// event-driven methods (TAFedAvg, FedAsync) across fleet sizes: the same
// engine on a 1-thread pool (the best serial run) against an N-thread pool,
// emitted as machine-readable BENCH_rounds.json.
//
// tools/bench_gate.py consumes the JSON and fails the bench-regression job
// when an entry regresses against bench/baselines/BENCH_rounds.json.
//
// The gate metric is `speedup_model` = trained jobs / parallel dispatch
// slots of the N-thread schedule (RoundGraphStats::dispatch_slots): the
// overlap factor the wavefront scheduler achieves at the configured thread
// count.  It is a deterministic property of (fleet build, thread count) —
// byte-stable across machines and immune to runner noise — so it gates the
// *scheduler*, not the host.  Wall-clock rounds/sec on 1 and N threads are
// emitted alongside as informational fields (on a pool with as many free
// physical cores as FEDHISYN_THREADS, `speedup_wall` tracks
// `speedup_model`).
//
//   ./bench_round_throughput --out BENCH_rounds.json [--rounds N]
//                            [--repeat N]   (plus the shared --threads, ...)
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/hostinfo.hpp"
#include "common/parallel.hpp"
#include "core/presets.hpp"
#include "core/registry.hpp"
#include "core/round_graph.hpp"
#include "exp/driver.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using namespace fedhisyn;

struct Config {
  const char* method;
  std::size_t devices;
  /// 0 = the global pool's thread count (--threads / FEDHISYN_THREADS).
  std::size_t threads = 0;
};

// Paper-scale is 100 devices with per-round epochs uniform in [5, 50]
// (§6.1); the smaller fleets show how overlap grows with fleet size.  The
// 8-device fleet runs on an 8-thread pool, wider than its ready waves, so
// its overlap factor is bounded by the schedule rather than the pool.
constexpr Config kConfigs[] = {
    {"TAFedAvg", 8, 8},  {"TAFedAvg", 25}, {"TAFedAvg", 50}, {"TAFedAvg", 100},
    {"FedAsync", 8, 8},  {"FedAsync", 25}, {"FedAsync", 50}, {"FedAsync", 100},
};

struct Measurement {
  double ms_per_round = 0.0;
  core::RoundGraphStats stats;  // summed over the measured rounds
};

/// Run `rounds` rounds on a fresh algorithm on the bound pool, `repeat`
/// times; keep the fastest run's time and its (deterministic) summed stats.
Measurement measure(const core::BuiltExperiment& built, const Config& config,
                    int rounds, int repeat) {
  using clock = std::chrono::steady_clock;
  const core::FlOptions opts;
  Measurement best;
  best.ms_per_round = 1e30;
  for (int r = 0; r < repeat; ++r) {
    auto algorithm = core::make_algorithm(config.method, built.context(opts));
    const auto start = clock::now();
    core::RoundGraphStats total;
    for (int round = 0; round < rounds; ++round) {
      algorithm->run_round();
      const auto& stats = algorithm->last_round_stats();
      total.jobs += stats.jobs;
      total.waves += stats.waves;
      total.dispatch_slots += stats.dispatch_slots;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count() /
        rounds;
    if (ms < best.ms_per_round) {
      best.ms_per_round = ms;
      best.stats = total;
    }
  }
  return best;
}

}  // namespace

// Reached through run_driver, which has sized the global pool for --threads.
int run(const Flags& flags, const exp::GridDriverOptions&) {
  const std::string out_path = flags.get("out", "BENCH_rounds.json");
  const int rounds = static_cast<int>(flags.get_long("rounds", 3, 1, INT_MAX));
  const int repeat = static_cast<int>(flags.get_long("repeat", 2, 1, INT_MAX));
  const std::size_t threads = ParallelExecutor::global().thread_count();

  std::string json;
  json += "{\n  \"schema\": \"fedhisyn-round-throughput/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"rounds\": " + std::to_string(rounds) + ",\n";
  json += "  \"entries\": [\n";

  bool first = true;
  for (const auto& config : kConfigs) {
    const std::size_t pool_threads =
        config.threads > 0 ? config.threads : threads;
    ParallelExecutor pool(pool_threads);
    ParallelExecutor::Bind bind(pool);
    core::BuildConfig build;
    build.dataset = "mnist";
    build.scale = core::default_scale(build.dataset, full_scale_enabled());
    build.scale.devices = config.devices;
    build.partition.iid = false;
    build.partition.beta = 0.3;
    const auto built = core::build_experiment(build);

    const auto overlap = measure(*built, config, rounds, repeat);
    const auto serial = [&] {
      ParallelExecutor one(1);
      ParallelExecutor::Bind bind_one(one);
      return measure(*built, config, rounds, repeat);
    }();

    const double jobs_per_round =
        static_cast<double>(overlap.stats.jobs) / rounds;
    const double speedup_model =
        static_cast<double>(overlap.stats.jobs) /
        static_cast<double>(overlap.stats.dispatch_slots > 0
                                ? overlap.stats.dispatch_slots
                                : overlap.stats.jobs);
    const double speedup_wall = serial.ms_per_round / overlap.ms_per_round;

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"%s/d%zu\", \"method\": \"%s\", \"devices\": %zu, "
        "\"threads\": %zu, "
        "\"jobs_per_round\": %.1f, \"waves_per_round\": %.1f, "
        "\"serial_ms_per_round\": %.3f, \"overlap_ms_per_round\": %.3f, "
        "\"rounds_per_sec_serial\": %.3f, \"rounds_per_sec_overlap\": %.3f, "
        "\"speedup_wall\": %.3f, \"speedup_model\": %.3f}",
        config.method, config.devices, config.method, config.devices,
        pool_threads, jobs_per_round,
        static_cast<double>(overlap.stats.waves) / rounds,
        serial.ms_per_round, overlap.ms_per_round, 1000.0 / serial.ms_per_round,
        1000.0 / overlap.ms_per_round, speedup_wall, speedup_model);
    if (!first) json += ",\n";
    first = false;
    json += line;
    std::fprintf(stderr,
                 "%-14s %3zu devices  %6.1f jobs/round  serial %8.2f ms  "
                 "overlap %8.2f ms  wall %5.2fx  model %5.2fx\n",
                 config.method, config.devices, jobs_per_round,
                 serial.ms_per_round, overlap.ms_per_round, speedup_wall,
                 speedup_model);
  }
  json += "\n  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cout << out_path << std::endl;
  return 0;
}

int main(int argc, char** argv) {
  return fedhisyn::exp::run_driver(argc, argv, {"out=FILE", "rounds=N", "repeat=N"}, run);
}
