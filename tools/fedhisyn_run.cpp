// fedhisyn_run — command-line driver for single experiments, built on the
// declarative experiment API (exp::ExperimentSpec + exp::run_cell).
//
//   fedhisyn_run --dataset cifar10 --method FedHiSyn --beta 0.3
//                --participation 0.5 --clusters 10 --rounds 50
//                --history-csv run.csv --save-model final.fhsw
//
// Every flag is optional; `--help` lists them and docs/CONFIG.md
// ("fedhisyn_run flags") describes each with its default.
#include <climits>
#include <cstdio>
#include <fstream>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/trace.hpp"
#include "common/table.hpp"
#include "core/aggregate.hpp"
#include "core/presets.hpp"
#include "exp/driver.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "nn/serialize.hpp"
#include "sim/ring.hpp"

namespace {

// The shared flags (--threads, --list-methods, ...) and --out, --trace and
// --metrics-out arrive resolved in `grid_options`.
int run_experiment(const fedhisyn::Flags& flags,
                   const fedhisyn::exp::GridDriverOptions& grid_options) {
  using namespace fedhisyn;

  exp::ExperimentSpec spec;
  spec.build.dataset = flags.get("dataset", "mnist");
  spec.build.scale = core::default_scale(spec.build.dataset, full_scale_enabled());
  if (flags.has("rounds")) {
    spec.build.scale.rounds = static_cast<int>(flags.get_long("rounds", 0, 1, INT_MAX));
  }
  if (flags.has("devices")) {
    spec.build.scale.devices = static_cast<std::size_t>(flags.get_long("devices", 0, 1));
  }
  spec.build.partition.iid = flags.get_bool("iid", false);
  spec.build.partition.beta = flags.get_double("beta", 0.3);
  if (flags.has("heterogeneity")) {
    spec.build.fleet_kind = core::FleetKind::kRatio;
    spec.build.fleet_ratio_h = flags.get_double("heterogeneity", 10.0);
  }
  spec.build.use_cnn = flags.get_bool("cnn", false);
  spec.with_seed(static_cast<std::uint64_t>(flags.get_long("seed", 1, 0)));

  spec.method = flags.get("method", "FedHiSyn");
  spec.opts.lr = static_cast<float>(flags.get_double("lr", 0.1));
  spec.opts.local_epochs = static_cast<int>(flags.get_long("epochs", 5, 1, INT_MAX));
  spec.opts.batch_size = static_cast<int>(flags.get_long("batch", 50, 1, INT_MAX));
  spec.opts.participation = flags.get_double("participation", 1.0);
  spec.opts.clusters = static_cast<std::size_t>(flags.get_long("clusters", 10, 1));
  spec.opts.momentum = static_cast<float>(flags.get_double("momentum", 0.0));
  spec.opts.ring_order = sim::ring_order_from_name(flags.get("ring-order", "small-to-large"));
  spec.opts.aggregation = core::aggregation_from_name(flags.get("aggregation", "uniform"));
  if (flags.has("target")) {
    spec.target = static_cast<float>(flags.get_double("target", 0.5));
  }
  spec.eval_every = static_cast<int>(flags.get_long("eval-every", 1, 1, INT_MAX));

  std::printf("%s on %s: %zu devices, %s partition, %.0f%% participation, %d rounds\n",
              spec.method.c_str(), spec.build.dataset.c_str(), spec.build.scale.devices,
              spec.partition_label().c_str(), spec.opts.participation * 100.0,
              spec.build.scale.rounds);

  exp::CellHooks hooks;
  std::vector<float> final_weights;
  if (flags.has("save-model")) hooks.final_weights = &final_weights;
  const auto cell = exp::run_cell(spec, hooks);

  Table history({"round", "accuracy", "comm (FedAvg rounds)", "d2d"});
  for (const auto& record : cell.result.history) {
    history.add_row({Table::fmt_i(record.round), Table::fmt_pct(record.accuracy),
                     Table::fmt_f(record.comm_rounds, 1),
                     Table::fmt_f(record.d2d_transfers, 0)});
  }
  history.print();
  std::printf("final %.2f%%, best %.2f%%, target %.0f%%: %s\n",
              cell.result.final_accuracy * 100.0, cell.result.best_accuracy * 100.0,
              spec.resolved_target() * 100.0, cell.result.table_cell().c_str());
  // Timing goes to stderr: stdout stays byte-identical across thread counts
  // (the determinism check diffs it).
  std::fprintf(stderr, "wall: %.1fs\n", cell.seconds);

  if (!grid_options.trace_out.empty()) {
    trace::write_chrome_trace(grid_options.trace_out);
  }
  if (!grid_options.metrics_out.empty()) {
    counters::write_metrics(grid_options.metrics_out);
  }

  if (!grid_options.out.empty()) {
    exp::write_results(grid_options.out, {cell});
    std::printf("result written to %s\n", grid_options.out.c_str());
  }
  if (flags.has("history-csv")) {
    const std::string path = flags.get("history-csv", "");
    std::ofstream out(path);
    out << history.to_csv();
    std::printf("history written to %s\n", path.c_str());
  }
  if (flags.has("save-model")) {
    const std::string path = flags.get("save-model", "");
    nn::save_weights(path, final_weights);
    std::printf("model written to %s (%zu params)\n", path.c_str(), final_weights.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fedhisyn::exp::run_driver(
      argc, argv,
      {"dataset=NAME", "method=NAME", "rounds=N", "devices=N", "iid", "beta=X",
       "participation=X", "clusters=K", "lr=X", "epochs=N", "batch=N", "momentum=X",
       "ring-order=NAME", "aggregation=NAME", "heterogeneity=H", "cnn", "seed=N",
       "target=X", "eval-every=N", "out=PATH", "trace=FILE", "metrics-out=FILE",
       "history-csv=PATH", "save-model=PATH"},
      run_experiment);
}
