#include "exp/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/registry.hpp"
#include "exp/dispatch.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "tensor/gemm_tune.hpp"

namespace fedhisyn::exp {

namespace {

// The shared flag declarations (with kDatasetFlag, kPartFlag and
// kPartitionFlag in driver.hpp); tools/lint_docs.py keeps them equal to the
// flag table of docs/CONFIG.md.  Every binary takes these:
constexpr FlagDecl kCommonFlags[] = {"help",          "threads=N",    "gemm-kernel=K",
                                     "gemm-info",     "list-methods", "worker-cell",
                                     "serve=[BIND:]PORT"};
// ... and a binary whose sweep runs through run_grid also these:
constexpr FlagDecl kGridFlags[] = {"grid-jobs=N", "dispatch=MODE",    "workers=H:P,...",
                                   "out=PATH",    "resume",           "quiet",
                                   "trace=FILE",  "metrics-out=FILE", "build-cache-mb=M"};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      if (!item.empty()) items.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) items.push_back(item);
  return items;
}

}  // namespace

GridDriverOptions handle_grid_flags(const Flags& flags) {
  // Cache knobs ride on env vars and must be set before the worker
  // branches: a --serve worker or a self-exec'd --worker-cell child reads
  // them from its environment, and process workers inherit the
  // coordinator's.
  if (flags.get_bool("quiet")) setenv("FEDHISYN_QUIET", "1", /*overwrite=*/1);
  if (flags.has("build-cache-mb")) {
    const double mb = flags.get_double("build-cache-mb", -1.0);
    FEDHISYN_CHECK_MSG(mb >= 0.0,
                       "--build-cache-mb takes a byte budget in MiB (0 disables "
                       "build caching), got '"
                           << flags.get("build-cache-mb", "") << "'");
    setenv("FEDHISYN_BUILD_CACHE_MB", flags.get("build-cache-mb", "").c_str(),
           /*overwrite=*/1);
  }
  if (flags.has("gemm-kernel")) {
    setenv("FEDHISYN_GEMM_KERNEL", flags.get("gemm-kernel", "auto").c_str(),
           /*overwrite=*/1);
    // Validate immediately: a bad variant name should stop the sweep here,
    // not mid-grid inside the first gemm call.  Workers inherit the env var
    // and resolve independently.
    gemm_runtime_reinit();
  }
  if (flags.get_bool("worker-cell")) {
    // Hidden dispatch-worker mode: the process-backend parent self-execs
    // this binary with --worker-cell and speaks the exp/dispatch.hpp
    // protocol over stdin/stdout.  Never returns to the driver.
    std::exit(worker_cell_main());
  }
  if (flags.has("serve")) {
    // Remote dispatch-worker mode: serve the same worker protocol over TCP
    // for a --dispatch tcp coordinator.  Never returns to the driver.
    std::exit(serve_main(flags.get("serve", "")));
  }
  if (flags.get_bool("list-methods")) {
    for (const auto& method : core::registered_methods()) {
      std::printf("%-10s %s\n", method.c_str(),
                  core::method_description(method).c_str());
    }
    std::exit(0);
  }
  if (flags.get_bool("gemm-info")) {
    std::printf("%s", gemm_info_string().c_str());
    std::exit(0);
  }
  if (flags.has("threads")) {
    ParallelExecutor::global().set_thread_count(
        static_cast<std::size_t>(flags.get_long("threads", 0, 1)));
  }
  GridDriverOptions options;
  GridScheduler::Options& scheduler = options.scheduler;
  scheduler.jobs = static_cast<std::size_t>(flags.get_long("grid-jobs", 1, 1));
  options.out = flags.get("out", "");
  if (flags.has("dispatch")) {
    const std::string mode = flags.get("dispatch", "thread");
    FEDHISYN_CHECK_MSG(mode == "thread" || mode == "process" || mode == "tcp",
                       "--dispatch takes thread|process|tcp, got '" << mode << "'");
    scheduler.backend = mode == "process" ? CellBackend::kProcess
                        : mode == "tcp"   ? CellBackend::kTcp
                                          : CellBackend::kThread;
  }
  scheduler.worker_hosts = flags.get("workers", "");
  FEDHISYN_CHECK_MSG(
      scheduler.worker_hosts.empty() || scheduler.backend == CellBackend::kTcp,
      "--workers only makes sense with --dispatch tcp");
  options.resume = flags.get_bool("resume");
  options.quiet = flags.get_bool("quiet");
  // Tracing resolves after the worker branches on purpose: a --serve /
  // --worker-cell worker never sink-traces a whole run — it records per cell
  // when a request's trace field asks (each worker's spans travel the wire).
  options.trace_out = flags.get("trace", "");
  if (!options.trace_out.empty()) trace::set_enabled(true);
  options.metrics_out = flags.get("metrics-out", "");
  return options;
}

std::vector<FlagDecl> grid_flags(std::initializer_list<FlagDecl> own) {
  std::vector<FlagDecl> flags(std::begin(kGridFlags), std::end(kGridFlags));
  flags.insert(flags.end(), own.begin(), own.end());
  return flags;
}

int run_driver(int argc, char** argv, std::vector<FlagDecl> own_flags,
               int (*body)(const Flags& flags, const GridDriverOptions& options)) {
  try {
    own_flags.insert(own_flags.begin(), std::begin(kCommonFlags), std::end(kCommonFlags));
    const Flags flags = Flags::parse(argc - 1, argv + 1);
    flags.check_declared(own_flags);
    if (flags.get_bool("help")) {
      std::printf("usage: %s [flags]   (docs/CONFIG.md describes them)\n", argv[0]);
      for (const FlagDecl decl : own_flags) {
        std::string line = "  --" + std::string(decl);
        std::replace(line.begin(), line.end(), '=', ' ');
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    return body(flags, handle_grid_flags(flags));
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

std::vector<CellResult> run_grid(const std::vector<ExperimentSpec>& specs,
                                 const GridDriverOptions& options) {
  const std::size_t total = specs.size();
  std::vector<CellResult> results(total);
  const bool csv = is_csv_path(options.out);
  const bool streaming = !options.out.empty() && !csv;
  FEDHISYN_CHECK_MSG(!options.resume || streaming,
                     "--resume needs --out pointing at a JSONL results file "
                     "(CSV rows carry no spec key)");

  // Resume: finished cells are identified by spec key; their verbatim lines
  // are kept for the final rewrite so resumed bytes never churn.
  std::vector<bool> resumed(total, false);
  std::vector<std::string> resumed_lines(total);
  std::size_t resumed_count = 0;
  if (options.resume) {
    std::map<std::string, ScannedResult> by_key;
    for (auto& scanned : scan_results(options.out)) {
      by_key[scanned.key] = std::move(scanned);
    }
    for (std::size_t i = 0; i < total; ++i) {
      const auto it = by_key.find(specs[i].to_key());
      if (it == by_key.end()) continue;
      resumed[i] = true;
      resumed_lines[i] = it->second.line;
      ++resumed_count;
      results[i].spec = specs[i];
      results[i].result.algorithm = specs[i].method;
      results[i].result.final_accuracy = it->second.final_accuracy;
      results[i].result.best_accuracy = it->second.best_accuracy;
      results[i].result.comm_to_target = it->second.comm_to_target;
      results[i].result.rounds_to_target = it->second.rounds_to_target;
    }
    if (!options.quiet && resumed_count > 0) {
      std::fprintf(stderr, "resume: %zu/%zu cells already complete in %s\n",
                   resumed_count, total, options.out.c_str());
    }
    // An interrupted append may have left a partial final line with no
    // newline; close it off so the first fresh line cannot glue onto it.
    terminate_partial_line(options.out);
  } else if (streaming) {
    // Fresh sweep: start the streaming sink empty (atomically, so a stale
    // file from an earlier run can never be half-mixed with this one).
    write_lines_atomic(options.out, {});
  }

  std::vector<ExperimentSpec> pending_specs;
  std::vector<std::size_t> pending_index;
  for (std::size_t i = 0; i < total; ++i) {
    if (resumed[i]) continue;
    pending_specs.push_back(specs[i]);
    pending_index.push_back(i);
  }

  if (!pending_specs.empty()) {
    const double start = trace::clock_seconds();
    GridScheduler::Options sched = options.scheduler;
    // Serialised by the scheduler (both backends), so the append-order in
    // the streaming sink is completion order; the final rewrite below
    // restores spec order.
    sched.on_cell = [&](std::size_t done, std::size_t count, const CellResult& cell) {
      if (streaming) append_result_line(options.out, to_jsonl_line(cell));
      // The latency histogram feeds the progress line's p50/p95 and the
      // --metrics-out dump; recorded even under --quiet so the dump does not
      // depend on verbosity.
      static counters::Histogram& latency =
          counters::histogram("grid.cell_seconds_us");
      latency.record(static_cast<std::uint64_t>(cell.seconds * 1e6));
      if (options.quiet) return;
      const double elapsed = trace::clock_seconds() - start;
      const double eta = elapsed / static_cast<double>(done) *
                         static_cast<double>(count - done);
      std::fprintf(stderr, "[%zu/%zu] %s  %.1fs  p50 %.1fs p95 %.1fs  eta %.0fs\n",
                   done, count, cell.spec.label().c_str(), cell.seconds,
                   static_cast<double>(latency.quantile(0.5)) / 1e6,
                   static_cast<double>(latency.quantile(0.95)) / 1e6, eta);
    };
    auto fresh = GridScheduler(sched).run(pending_specs);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      results[pending_index[k]] = std::move(fresh[k]);
    }
  }

  // Observability outputs last, after every worker's telemetry is merged.
  // Distinct files from --out on purpose: neither may ever touch result
  // bytes.
  if (!options.trace_out.empty()) trace::write_chrome_trace(options.trace_out);
  if (!options.metrics_out.empty()) counters::write_metrics(options.metrics_out);

  if (!options.out.empty()) {
    if (csv) {
      write_results(options.out, results);
    } else {
      std::vector<std::string> lines;
      lines.reserve(total);
      for (std::size_t i = 0; i < total; ++i) {
        lines.push_back(resumed[i] ? resumed_lines[i] : to_jsonl_line(results[i]));
      }
      write_lines_atomic(options.out, lines);
    }
  }
  return results;
}

std::vector<std::string> list_flag(const Flags& flags, const std::string& key,
                                   std::vector<std::string> defaults) {
  const std::string raw = flags.get(key, "");
  if (raw.empty()) return defaults;
  auto items = split_list(raw);
  FEDHISYN_CHECK_MSG(!items.empty(), "--" << key << " given an empty list");
  return items;
}

std::vector<std::string> datasets_from_flags(const Flags& flags,
                                             std::vector<std::string> defaults) {
  return list_flag(flags, "dataset", std::move(defaults));
}

std::vector<double> participations_from_flags(const Flags& flags,
                                              std::vector<double> defaults) {
  const auto items = list_flag(flags, "part", {});
  if (items.empty()) return defaults;
  std::vector<double> fractions;
  for (const auto& item : items) {
    const double percent = parse_double("--part", item);
    FEDHISYN_CHECK_MSG(percent > 0.0 && percent <= 100.0,
                       "--part value '" << item << "' is not a percentage");
    fractions.push_back(percent / 100.0);
  }
  return fractions;
}

std::vector<data::PartitionConfig> partitions_from_flags(
    const Flags& flags, std::vector<data::PartitionConfig> defaults) {
  const auto items = list_flag(flags, "partition", {});
  if (items.empty()) return defaults;
  std::vector<data::PartitionConfig> partitions;
  for (const auto& item : items) {
    data::PartitionConfig config;
    if (item == "iid" || item == "IID") {
      config.iid = true;
      config.beta = 0.0;
    } else if (item.rfind("dir", 0) == 0) {
      config.iid = false;
      config.beta = parse_double("--partition", item.substr(3));
      FEDHISYN_CHECK_MSG(config.beta > 0.0 && std::isfinite(config.beta),
                         "--partition token '" << item << "' needs dir<beta>");
    } else {
      FEDHISYN_CHECK_MSG(false, "--partition token '" << item
                                                      << "' is not iid or dir<beta>");
    }
    partitions.push_back(config);
  }
  return partitions;
}

}  // namespace fedhisyn::exp
