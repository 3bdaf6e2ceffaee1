// perfbench: the repository's end-to-end benchmark harness.
//
// It drives the library from outside, through its public entry points, and
// times each call: exp::BuildCache::get for builds, exp::run_cell with a
// CellHooks::on_round hook for cells and rounds, and exp::GridScheduler::run
// with CellBackend::kProcess for dispatch.  Layer counters come from the
// always-on registry (counters::snapshot() / counters::delta()), CPU time and
// context switches from getrusage.  perfbench/README.md lists the workloads,
// every metric with its unit, and which end-to-end metric each per-layer
// metric should move.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --golden-dir DIR
//   perfbench --record --workload W --golden-dir DIR
//   perfbench --help
//
// A run generates the workload's specs from --seed, measures passes over
// them for --seconds, checks every cell's exp::to_jsonl_line bytes against
// the digests recorded in DIR/<workload>.txt, and prints one JSON object as
// the last stdout line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 spends half the budget
// on untraced passes, then runs one traced pass, and reports the per-layer
// metrics.  --record rewrites DIR/<workload>.txt from this build's output
// for every seed variant.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/flags.hpp"
#include "common/hostinfo.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/registry.hpp"
#include "exp/build_cache.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "tensor/gemm_tune.hpp"

extern char** environ;

namespace {

using namespace fedhisyn;

constexpr const char* kUsage =
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1 --golden-dir DIR\n"
    "       perfbench --record --workload W --golden-dir DIR\n"
    "\n"
    "workloads: t1-mlp | cnn-cifar10 | dispatch-churn\n"
    "  --seed N        input seed; selects one of 10 recorded input variants (N mod 10)\n"
    "  --seconds S     measuring budget of the run\n"
    "  --trace 0|1     0: end-to-end metrics; 1: per-layer metrics from a traced pass\n"
    "  --golden-dir D  directory of the recorded per-cell output digests\n"
    "  --record        rewrite D/<workload>.txt from this build for every variant\n"
    "The last stdout line is the JSON result; see perfbench/README.md.\n";

/// Seed variants with recorded digests: --seed N runs variant N mod kVariants.
constexpr int kVariants = 10;
/// In-process set-up repetitions per run (setup_s reports their median).
constexpr int kSetupReps = 31;
/// Dispatch backend per-cell deadline; a worker past it is killed and the
/// cell retried (counted in dispatch.timeouts).
constexpr double kCellTimeoutS = 60.0;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- workloads --
//
// Each workload keeps its builds (data, partition, fleet) fixed and lets the
// seed variant pick the algorithms' seed.  The fleet's per-device epochs come
// from the build seed, so varying it would change how much training a run
// does; varying the algorithm seed changes the trained values, not the work.

std::uint64_t algorithm_seed(std::uint64_t build_seed, int variant) {
  return build_seed + static_cast<std::uint64_t>(variant);
}

exp::ExperimentSpec small_mlp_spec(const std::string& dataset, std::size_t devices,
                                   bool iid, std::uint64_t build_seed, int variant) {
  exp::ExperimentSpec spec;
  spec.with_seed(build_seed);
  spec.opts.seed = algorithm_seed(build_seed, variant);
  spec.build.dataset = dataset;
  spec.build.scale.devices = devices;
  spec.build.scale.train_samples_per_device = 20;
  spec.build.scale.test_samples = 200;
  spec.build.scale.rounds = 3;
  spec.build.partition = {iid, 0.5};
  spec.build.mlp_hidden = {32};
  spec.opts.local_epochs = 2;
  spec.opts.batch_size = 20;
  spec.opts.clusters = 2;
  spec.target = 0.999f;
  return spec;
}

/// The Table-1 row subset: 4 suites x IID x p100 x the 7 Table-1 methods at
/// the default smoke scale, with bench_table1_main's per-cell settings
/// (variant 0 is its seed 101, so its cells are byte-identical to that
/// bench's).
std::vector<exp::ExperimentSpec> t1_specs(int variant) {
  exp::ExperimentGrid grid;
  grid.base().with_seed(101);
  grid.base().opts.seed = algorithm_seed(101, variant);
  grid.participations({1.0})
      .partitions({{true, 0.0}})
      .datasets({"mnist", "emnist", "cifar10", "cifar100"})
      .methods(core::table1_methods())
      .auto_scale(false)
      .override_each([](exp::ExperimentSpec& spec) {
        spec.build.use_cnn = false;
        spec.opts.clusters = 5;
        spec.eval_every = 3;
      });
  return grid.expand();
}

/// The paper's CNN on cifar10 with a smoke fleet, four methods that exercise
/// sync rounds, ring rounds, control variates and async waves.
std::vector<exp::ExperimentSpec> cnn_specs(int variant) {
  exp::ExperimentGrid grid;
  exp::ExperimentSpec& base = grid.base();
  base.with_seed(201);
  base.opts.seed = algorithm_seed(201, variant);
  base.build.dataset = "cifar10";
  base.build.use_cnn = true;
  base.build.scale.devices = 8;
  base.build.scale.train_samples_per_device = 50;
  base.build.scale.test_samples = 200;
  base.build.scale.rounds = 3;
  base.opts.local_epochs = 1;
  base.opts.clusters = 2;
  base.eval_every = 1;
  grid.methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "TAFedAvg"});
  return grid.expand();
}

/// 32 distinct tiny builds (2 datasets x 2 fleet sizes x 2 partitions x 4
/// seeds) x every registered method, build-interleaved: consecutive cells
/// never share a build, so the workers' caches and the affinity pass work.
std::vector<exp::ExperimentSpec> churn_specs(int variant) {
  std::vector<exp::ExperimentSpec> builds;
  for (const char* dataset : {"mnist", "emnist"}) {
    for (const std::size_t devices : {6, 10}) {
      for (const bool iid : {true, false}) {
        for (std::uint64_t j = 0; j < 4; ++j) {
          builds.push_back(small_mlp_spec(dataset, devices, iid, 301 + j, variant));
        }
      }
    }
  }
  std::vector<exp::ExperimentSpec> specs;
  for (const std::string& method : core::registered_methods()) {
    for (const exp::ExperimentSpec& build : builds) {
      specs.push_back(build);
      specs.back().method = method;
    }
  }
  return specs;
}

struct Workload {
  const char* name;
  bool dispatch;  // cells go through GridScheduler's process backend
  std::vector<exp::ExperimentSpec> (*make_specs)(int variant);
};

constexpr Workload kWorkloads[] = {
    {"t1-mlp", false, t1_specs},
    {"cnn-cifar10", false, cnn_specs},
    {"dispatch-churn", true, churn_specs},
};

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least p of them at or below it.
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index =
      std::min(samples.size(), static_cast<std::size_t>(std::max(1.0, rank))) - 1;
  return samples[index];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a 64 of a result line, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double switches = 0.0;
};

Usage usage_now(bool with_children) {
  const auto add = [](Usage& usage, int who) {
    rusage ru{};
    getrusage(who, &ru);
    usage.user_s += static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    usage.sys_s += static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    usage.switches += static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  };
  Usage usage;
  add(usage, RUSAGE_SELF);
  if (with_children) add(usage, RUSAGE_CHILDREN);
  return usage;
}

/// Host CPU ticks (total, stolen) from /proc/stat's aggregate line; zeros
/// when unreadable.  Steal is time the hypervisor ran something else on this
/// machine's virtual CPUs, the main source of run-to-run noise on a shared VM.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0;
  double steal = 0.0;
  double value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

/// Peak resident set in MiB of this process and of its largest reaped
/// worker.  This process's peak is VmHWM, not ru_maxrss: ru_maxrss keeps the
/// high-water mark of the image exec replaced, so it would count the
/// launching process's memory.  A worker's ru_maxrss likewise includes this
/// process's pages it held between fork and exec.
double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::strtod(line.c_str() + 6, nullptr);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------- passes --

/// Recorded per-cell digests of one workload: variant -> digests in spec order.
using Golden = std::map<int, std::vector<std::string>>;

Golden load_golden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int variant = -1;
    std::size_t index = 0;
    std::string hex;
    if (!(fields >> variant >> index >> hex)) continue;
    auto& cells = golden[variant];
    if (cells.size() <= index) cells.resize(index + 1);
    cells[index] = hex;
  }
  return golden;
}

/// One pass over a workload's specs, with everything measured around it.
struct Pass {
  double wall_s = 0.0;
  /// Dispatch only: run() start to the first cell's hand-over.
  double handover_s = 0.0;
  std::size_t cells = 0;
  std::size_t failed = 0;
  /// Per-cell exp::CellResult::seconds, in ms.
  std::vector<double> cell_ms;
  double cell_s_sum = 0.0;
  /// Round wall samples in ms (see README: per evaluated interval in process,
  /// per cell on dispatch workers).
  std::vector<double> round_ms;
  std::size_t rounds = 0;
  /// Builds: harness-timed BuildCache::get misses in process, worker
  /// `build` spans on dispatch (traced passes only).
  std::vector<double> build_ms;
  double build_s_sum = 0.0;
  std::uint64_t telemetry_dropped = 0;
  Usage usage;
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::string> digests;
};

class Harness {
 public:
  Harness(const Workload& workload, int variant, std::size_t threads,
          std::size_t workers, const std::vector<std::string>* golden)
      : workload_(workload),
        variant_(variant),
        threads_(threads),
        workers_(workers),
        golden_(golden) {}

  std::size_t slots() const { return workload_.dispatch ? workers_ : 1; }
  std::size_t layout_threads() const { return workload_.dispatch ? workers_ : threads_; }

  /// Fresh start of an in-process workload up to the first cell hand-over:
  /// generate the specs, start the pool, resolve the GEMM dispatch.  Keeps
  /// the last pool for the passes.  Records the seconds each repetition
  /// took, and the pool start within it.
  void setup_in_process(int reps) {
    for (int r = 0; r < reps; ++r) {
      bind_.reset();
      pool_.reset();
      const auto start = Clock::now();
      specs_ = workload_.make_specs(variant_);
      const auto pool_start = Clock::now();
      pool_ = std::make_unique<ParallelExecutor>(threads_);
      pool_start_s_.push_back(since(pool_start));
      gemm_runtime_reinit();
      setup_s_.push_back(since(start));
    }
    bind_ = std::make_unique<ParallelExecutor::Bind>(*pool_);
  }

  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& pool_start_s() const { return pool_start_s_; }

  Pass run_pass() {
    Pass pass;
    const auto before = counters::snapshot();
    const Usage usage_before = usage_now(workload_.dispatch);
    const auto start = Clock::now();
    if (workload_.dispatch) {
      dispatch_pass(pass, start);
    } else {
      in_process_pass(pass);
    }
    pass.wall_s = since(start);
    const Usage usage_after = usage_now(workload_.dispatch);
    pass.usage = {usage_after.user_s - usage_before.user_s,
                  usage_after.sys_s - usage_before.sys_s,
                  usage_after.switches - usage_before.switches};
    for (const auto& [name, value] : counters::delta(before, counters::snapshot())) {
      pass.counters[name] = value;
    }
    return pass;
  }

  const std::vector<exp::ExperimentSpec>& specs() const { return specs_; }

  /// Dispatch workloads have no in-process set-up; generate the specs.
  void prepare_dispatch() { specs_ = workload_.make_specs(variant_); }

 private:
  void check(Pass& pass, std::size_t index, const exp::CellResult& cell) {
    const std::string hex = digest(exp::to_jsonl_line(cell));
    pass.digests.push_back(hex);
    if (golden_ == nullptr) return;  // recording
    if (index >= golden_->size() || (*golden_)[index] != hex) {
      ++pass.failed;
      std::fprintf(stderr, "perfbench: cell %zu (%s) output digest %s != recorded %s\n",
                   index, cell.spec.label().c_str(), hex.c_str(),
                   index < golden_->size() ? (*golden_)[index].c_str() : "(none)");
    }
  }

  void in_process_pass(Pass& pass) {
    // A fresh cache per pass: every user sweep pays for its builds.
    exp::BuildCache cache;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const exp::ExperimentSpec& spec = specs_[i];
      ++pass.cells;
      try {
        const auto build_start = Clock::now();
        bool hit = false;
        const auto built = cache.get(spec, &hit);
        if (!hit) {
          const double build_s = since(build_start);
          pass.build_ms.push_back(build_s * 1e3);
          pass.build_s_sum += build_s;
        }
        auto last = Clock::now();
        int last_round = 0;
        exp::CellHooks hooks;
        hooks.on_round = [&](const core::RoundRecord& record) {
          const auto now = Clock::now();
          pass.round_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count() /
                                  (record.round - last_round));
          last = now;
          last_round = record.round;
        };
        const exp::CellResult cell = exp::run_cell(spec, *built, hooks);
        pass.cell_ms.push_back(cell.seconds * 1e3);
        pass.cell_s_sum += cell.seconds;
        pass.rounds += static_cast<std::size_t>(last_round);
        check(pass, i, cell);
      } catch (const std::exception& e) {
        ++pass.failed;
        pass.digests.push_back("error");
        std::fprintf(stderr, "perfbench: cell %zu (%s) threw: %s\n", i,
                     spec.label().c_str(), e.what());
      }
    }
  }

  void dispatch_pass(Pass& pass, Clock::time_point start) {
    exp::GridScheduler::Options options;
    options.jobs = workers_;
    options.total_threads = workers_;  // single-thread workers
    options.backend = exp::CellBackend::kProcess;
    options.cell_timeout_s = kCellTimeoutS;
    bool first = true;
    options.on_cell = [&](std::size_t, std::size_t, const exp::CellResult& cell) {
      if (!first) return;
      first = false;
      pass.handover_s = since(start) - cell.seconds;
    };
    pass.cells = specs_.size();
    std::vector<exp::CellResult> results;
    try {
      results = exp::GridScheduler(std::move(options)).run(specs_);
    } catch (const std::exception& e) {
      pass.failed = specs_.size();
      std::fprintf(stderr, "perfbench: dispatch pass failed: %s\n", e.what());
      return;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const exp::CellResult& cell = results[i];
      const int rounds = cell.result.history.empty() ? 0 : cell.result.history.back().round;
      pass.cell_ms.push_back(cell.seconds * 1e3);
      pass.cell_s_sum += cell.seconds;
      if (rounds > 0) pass.round_ms.push_back(cell.seconds * 1e3 / rounds);
      pass.rounds += static_cast<std::size_t>(rounds);
      pass.telemetry_dropped += cell.telemetry.dropped;
      for (const exp::CellTelemetrySpan& span : cell.telemetry.spans) {
        if (span.cat == "build_cache" && span.name == "build") {
          pass.build_ms.push_back(static_cast<double>(span.dur_us) * 1e-3);
          pass.build_s_sum += static_cast<double>(span.dur_us) * 1e-6;
        }
      }
      check(pass, i, cell);
    }
  }

  const Workload& workload_;
  const int variant_;
  const std::size_t threads_;
  const std::size_t workers_;
  const std::vector<std::string>* golden_;
  std::vector<exp::ExperimentSpec> specs_;
  std::vector<double> setup_s_;
  std::vector<double> pool_start_s_;
  std::unique_ptr<ParallelExecutor> pool_;
  std::unique_ptr<ParallelExecutor::Bind> bind_;
};

/// Passes until the next one would overrun `budget_s` (at least one).
std::vector<Pass> run_passes(Harness& harness, double budget_s) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(harness.run_pass());
  } while (since(start) * (passes.size() + 1) / passes.size() <= budget_s);
  return passes;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Raw samples behind a percentile or median; 0 for other metrics.
  std::size_t samples = 0;
  /// Passes a per-pass value was taken over before its median; 0 if none.
  std::size_t passes = 0;
};

/// Everything the passes of one run add up to.
struct Totals {
  std::size_t passes = 0;
  double wall_s = 0.0;
  std::size_t cells = 0;
  std::size_t failed = 0;
  double cell_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> build_ms;
  std::vector<double> handover_s;
  double build_s = 0.0;
  std::uint64_t telemetry_dropped = 0;
  Usage usage;
  std::map<std::string, std::uint64_t> counters;

  explicit Totals(const std::vector<Pass>& all) {
    passes = all.size();
    for (const Pass& pass : all) {
      wall_s += pass.wall_s;
      cells += pass.cells;
      failed += pass.failed;
      cell_s += pass.cell_s_sum;
      rounds += pass.rounds;
      build_ms.insert(build_ms.end(), pass.build_ms.begin(), pass.build_ms.end());
      handover_s.push_back(pass.handover_s);
      build_s += pass.build_s_sum;
      telemetry_dropped += pass.telemetry_dropped;
      usage.user_s += pass.usage.user_s;
      usage.sys_s += pass.usage.sys_s;
      usage.switches += pass.usage.switches;
      for (const auto& [name, value] : pass.counters) counters[name] += value;
    }
  }

  double counter(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double per_pass(const char* name) const { return counter(name) / passes; }
};

/// A nearest-rank percentile of raw samples; false when the self-check that
/// it lies within their [min, max] fails, or there are none.
bool checked_percentile(const std::vector<double>& samples, double p, double* value) {
  *value = percentile(samples, p);
  if (samples.empty()) return false;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  return *value >= *lo && *value <= *hi;
}

/// Appends a percentile metric with its sample count; false when the
/// self-check fails.
bool add_percentile(std::vector<Metric>& out, const std::string& name,
                    const std::vector<double>& samples, double p, const char* unit) {
  double value = 0.0;
  const bool ok = checked_percentile(samples, p, &value);
  out.push_back({name, value, unit, samples.size()});
  return ok;
}

/// End-to-end metrics.  Throughput and percentiles are computed per pass
/// from that pass's raw samples, and the run reports their median over
/// passes, so a slow stretch of the host moves only the passes it overlaps.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               const std::vector<double>& setup_s, bool* ok) {
  std::vector<Metric> out;
  *ok = add_percentile(out, "setup_s", setup_s, 0.5, "s");

  std::vector<double> rates;
  std::size_t passed = 0;
  for (const Pass& pass : passes) {
    rates.push_back(ratio(static_cast<double>(pass.cells - pass.failed), pass.wall_s));
    passed += pass.cells - pass.failed;
  }
  *ok &= add_percentile(out, "cells_per_s", rates, 0.5, "1/s");
  out.back().samples = passed;
  out.back().passes = passes.size();

  const auto median_over_passes = [&](const char* name, std::vector<double> Pass::*samples,
                                      double p) {
    std::vector<double> values;
    std::size_t count = 0;
    for (const Pass& pass : passes) {
      double value = 0.0;
      *ok &= checked_percentile(pass.*samples, p, &value);
      values.push_back(value);
      count += (pass.*samples).size();
    }
    *ok &= add_percentile(out, name, values, 0.5, "ms");
    out.back().samples = count;
    out.back().passes = passes.size();
  };
  median_over_passes("cell_ms_p50", &Pass::cell_ms, 0.50);
  median_over_passes("cell_ms_p95", &Pass::cell_ms, 0.95);
  median_over_passes("round_ms_p50", &Pass::round_ms, 0.50);
  median_over_passes("round_ms_p95", &Pass::round_ms, 0.95);

  out.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  return out;
}

/// Per-layer metrics: wall/CPU shares from the untraced passes `u`, GEMM
/// times (recorded only while tracing), build times and exact counts from
/// the single traced pass `t`.
std::vector<Metric> per_layer(const Totals& u, const Totals& t,
                              const std::vector<double>& pool_start_s, std::size_t threads,
                              std::size_t slots, bool dispatch, bool* ok) {
  std::vector<Metric> out;
  const double cpu_u = u.usage.user_s + u.usage.sys_s;
  const double cpu_t = t.usage.user_s + t.usage.sys_s;
  out.push_back({"parallel.cpu_busy_frac", ratio(cpu_u, u.wall_s * threads), "ratio"});
  out.push_back({"parallel.ctx_switches_per_round",
                 ratio(u.usage.switches, static_cast<double>(u.rounds)), "count/round"});
  out.push_back({"parallel.sys_frac", ratio(u.usage.sys_s, cpu_u), "ratio"});

  const double calls = t.counter("gemm.calls");
  const double gemm_us = t.counter("gemm.pack_us") + t.counter("gemm.kernel_us");
  const double gemm_share = ratio(gemm_us, cpu_t * 1e6);
  out.push_back({"gemm.calls_per_cell", ratio(calls, static_cast<double>(t.cells)), "count"});
  out.push_back({"gemm.us_per_call", ratio(gemm_us, calls), "us"});
  out.push_back({"gemm.pack_frac", ratio(t.counter("gemm.pack_us"), gemm_us), "ratio"});
  out.push_back({"gemm.thread_s_frac", gemm_share, "ratio"});

  // Build time on dispatch workers is the sum of their `build` spans, which
  // is only complete when no telemetry span was dropped.
  const bool builds_complete = !dispatch || t.telemetry_dropped == 0;
  if (builds_complete) {
    out.push_back({"other.thread_s_frac", 1.0 - gemm_share - ratio(t.build_s, cpu_t), "ratio"});
  }

  out.push_back({"runner.rounds", static_cast<double>(t.rounds) / t.passes, "count"});
  out.push_back({"round_graph.jobs", t.per_pass("round_graph.jobs"), "count"});
  out.push_back({"round_graph.waves", t.per_pass("round_graph.waves"), "count"});
  out.push_back({"round_graph.jobs_per_wave",
                 ratio(t.counter("round_graph.jobs"), t.counter("round_graph.waves")),
                 "count"});
  out.push_back({"round_graph.speculated", t.per_pass("round_graph.speculated"), "count"});
  out.push_back({"round_graph.accepted", t.per_pass("round_graph.accepted"), "count"});

  const double hits = t.counter("build_cache.hits");
  const double misses = t.counter("build_cache.misses");
  out.push_back({"build.count", misses / t.passes, "count"});
  out.push_back({"build.hit_ratio", ratio(hits, hits + misses), "ratio"});
  out.push_back({"build.evictions", t.per_pass("build_cache.evictions"), "count"});
  if (builds_complete) {
    *ok &= add_percentile(out, "build.ms_p50", t.build_ms, 0.5, "ms");
    out.push_back({"build.wall_frac", ratio(t.build_s, t.wall_s * slots), "ratio"});
  }

  out.push_back({"dispatch.overhead_ms_per_cell",
                 ratio((u.wall_s * slots - u.cell_s) * 1e3, static_cast<double>(u.cells)),
                 "ms"});
  // The cells' workers: processes up to their first result on dispatch,
  // the pool's threads in process.
  *ok &= add_percentile(out, "dispatch.spawn_s", dispatch ? u.handover_s : pool_start_s,
                        0.5, "s");
  out.push_back({"dispatch.affinity_ratio",
                 ratio(u.counter("dispatch.affinity_hits"), u.counter("dispatch.cells")),
                 "ratio"});
  out.push_back({"dispatch.retries", u.per_pass("dispatch.retries"), "count"});
  out.push_back({"dispatch.timeouts", u.per_pass("dispatch.timeouts"), "count"});
  out.push_back({"scheduler.slot_busy_frac", ratio(u.cell_s, u.wall_s * slots), "ratio"});

  out.push_back({"trace.overhead_frac", ratio(t.wall_s, u.wall_s / u.passes) - 1.0, "ratio"});
  out.push_back({"trace.recorded_events", static_cast<double>(trace::recorded_event_count()),
                 "count"});
  out.push_back({"trace.dropped_events",
                 static_cast<double>(trace::dropped_event_count() + t.telemetry_dropped),
                 "count"});
  return out;
}

/// JSON has no NaN or infinity; main() marks such a run incorrect.
std::string fmt_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed, bool correct) {
  std::printf("%-32s %18s  %-12s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f  %-12s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (m.passes > 0) std::printf(" (median of %zu passes)", m.passes);
    std::printf("\n");
  }
  std::printf("%-32s %18.6f  %-12s (%zu of %zu cells)\n", "fail_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio",
              failed, attempted);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + fmt_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Drop every FEDHISYN_* knob inherited from the caller, so a run measures
/// the library's defaults whatever the shell exports; keep worker logs quiet.
void sanitize_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (text.rfind("FEDHISYN_", 0) == 0) names.push_back(text.substr(0, text.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("FEDHISYN_QUIET", "1", 1);
}

int fail_usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  return 2;
}

bool parse_long(const std::string& text, long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = value;
  return true;
}

int record(const Workload& workload, const std::string& golden_dir, std::size_t threads,
           std::size_t workers) {
  const std::string path = golden_dir + "/" + workload.name + ".txt";
  std::ofstream out(path);
  if (!out) return fail_usage("cannot write " + path);
  out << "# perfbench output digests (FNV-1a 64 of exp::to_jsonl_line) for workload "
      << workload.name << "\n# variant cell-index digest\n";
  for (int variant = 0; variant < kVariants; ++variant) {
    Harness harness(workload, variant, threads, workers, nullptr);
    if (workload.dispatch) {
      harness.prepare_dispatch();
    } else {
      harness.setup_in_process(1);
    }
    const Pass pass = harness.run_pass();
    if (pass.failed > 0 || pass.digests.size() != harness.specs().size()) {
      std::fprintf(stderr, "perfbench: variant %d failed; nothing recorded\n", variant);
      return 1;
    }
    for (std::size_t i = 0; i < pass.digests.size(); ++i) {
      out << variant << " " << i << " " << pass.digests[i] << "\n";
    }
    std::fprintf(stderr, "perfbench: recorded %s variant %d (%zu cells, %.1f s)\n",
                 workload.name, variant, pass.digests.size(), pass.wall_s);
  }
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  if (flags.has("worker-cell")) {
    // Self-exec'd by the process backend: become a dispatch worker.
    exp::handle_grid_flags(flags);
    return 1;  // unreachable: handle_grid_flags exits in worker mode
  }
  if (flags.get_bool("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::set<std::string> known = {"workload", "seed",       "seconds",
                                       "trace",    "golden-dir", "record"};
  for (const std::string& key : flags.keys()) {
    if (known.count(key) == 0) return fail_usage("unknown flag --" + key);
  }
  if (!flags.positional().empty()) {
    return fail_usage("unexpected argument '" + flags.positional().front() + "'");
  }

  const std::string name = flags.get("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) return fail_usage("--workload must name a workload, got '" + name + "'");
  const std::string golden_dir = flags.get("golden-dir", "");
  if (golden_dir.empty()) return fail_usage("--golden-dir is required");

  sanitize_environment();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t threads = nproc > 0 ? static_cast<std::size_t>(nproc) : 1;
  const std::size_t workers = std::max<std::size_t>(1, threads / 2);
  if (flags.get_bool("record")) return record(*workload, golden_dir, threads, workers);

  long seed = 0;
  long seconds = 0;
  long traced = 0;
  if (!parse_long(flags.get("seed", ""), &seed)) return fail_usage("--seed takes an integer");
  if (!parse_long(flags.get("seconds", ""), &seconds) || seconds < 1) {
    return fail_usage("--seconds takes a positive integer");
  }
  if (!parse_long(flags.get("trace", ""), &traced) || (traced != 0 && traced != 1)) {
    return fail_usage("--trace takes 0 or 1");
  }
  const int variant = static_cast<int>(((seed % kVariants) + kVariants) % kVariants);

  const Golden golden = load_golden(golden_dir + "/" + workload->name + ".txt");
  const auto golden_it = golden.find(variant);
  if (golden_it == golden.end()) {
    std::fprintf(stderr, "perfbench: no recorded digests for %s variant %d in %s\n",
                 workload->name, variant, golden_dir.c_str());
    return 1;
  }

  Harness harness(*workload, variant, threads, workers, &golden_it->second);
  if (workload->dispatch) {
    harness.prepare_dispatch();
  } else {
    harness.setup_in_process(kSetupReps);
  }
  const auto& specs = harness.specs();
  std::set<std::string> build_keys;
  for (const auto& spec : specs) build_keys.insert(spec.build_key());

  std::printf("perfbench workload=%s seed=%ld variant=%d cells=%zu build_keys=%zu "
              "trace=%ld seconds=%ld\n",
              workload->name, seed, variant, specs.size(), build_keys.size(), traced,
              seconds);
  std::printf("provenance nproc=%zu layout=%s cpu=\"%s\" gemm=%s\n", threads,
              workload->dispatch
                  ? (std::to_string(workers) + " process workers x 1 thread").c_str()
                  : ("1 job x " + std::to_string(threads) + " threads").c_str(),
              cpu_model_name().c_str(), gemm_runtime_info().variant.c_str());

  const auto ticks_before = cpu_ticks();
  std::vector<Pass> untraced;
  std::vector<Pass> traced_passes;
  if (traced == 0) {
    untraced = run_passes(harness, static_cast<double>(seconds));
  } else {
    untraced = run_passes(harness, static_cast<double>(seconds) / 2);
    trace::set_enabled(true);
    traced_passes.push_back(harness.run_pass());
    trace::set_enabled(false);
  }
  const auto ticks_after = cpu_ticks();
  std::printf("host cpu steal during the passes: %.2f%%\n",
              100.0 * ratio(ticks_after.second - ticks_before.second,
                            ticks_after.first - ticks_before.first));
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::printf("pass %zu: %zu cells, %.3f s\n", i + 1, untraced[i].cells, untraced[i].wall_s);
  }
  for (const Pass& pass : traced_passes) {
    std::printf("traced pass: %zu cells, %.3f s\n", pass.cells, pass.wall_s);
  }

  const Totals u(untraced);
  bool percentiles_ok = true;
  std::vector<Metric> metrics;
  std::size_t attempted = u.cells;
  std::size_t failed = u.failed;
  if (traced == 0) {
    metrics = end_to_end(untraced, workload->dispatch ? u.handover_s : harness.setup_s(),
                         &percentiles_ok);
  } else {
    const Totals t(traced_passes);
    attempted += t.cells;
    failed += t.failed;
    metrics = per_layer(u, t, harness.pool_start_s(), harness.layout_threads(),
                        harness.slots(), workload->dispatch, &percentiles_ok);
    if (workload->dispatch && t.telemetry_dropped > 0) {
      std::printf("note: %llu worker spans dropped; build.ms_p50, build.wall_frac and "
                  "other.thread_s_frac are not reported\n",
                  static_cast<unsigned long long>(t.telemetry_dropped));
    }
  }
  if (!percentiles_ok) std::fprintf(stderr, "perfbench: a percentile fell outside its samples\n");
  const bool finite = std::all_of(metrics.begin(), metrics.end(),
                                  [](const Metric& m) { return std::isfinite(m.value); });
  print_result(metrics, attempted, failed, failed == 0 && percentiles_ok && finite);
  return 0;
}
