// Table 1 — the paper's headline result.
//
// For every (participation ∈ {100%, 50%, 10%}) × (partition ∈ {IID,
// Dirichlet(0.8), Dirichlet(0.3)}) × (dataset ∈ {mnist, emnist, cifar10,
// cifar100}) cell, runs the seven methods and reports the number of models
// transmitted (normalised to one FedAvg round; SCAFFOLD counts twice per
// exchange, FedAT/TAFedAvg upload more often) to reach the per-suite target
// accuracy, with the final accuracy in parentheses.  "X(acc)" marks runs
// that never reach the target — exactly the paper's cell format.
//
// The sweep is a declarative ExperimentGrid fanned out by GridScheduler;
// --help lists the flags (docs/CONFIG.md describes them), and
// FEDHISYN_FULL=1 runs it at paper scale (100 devices, 100/150 rounds).
//
// Expected shape (paper): FedHiSyn needs the fewest normalised rounds in
// every setting and the gap widens with more Non-IID data, lower
// participation, and harder tasks; SCAFFOLD is the strongest baseline.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

namespace {

int run(const fedhisyn::Flags& flags,
        const fedhisyn::exp::GridDriverOptions& grid_options) {
  using namespace fedhisyn;
  const bool full = full_scale_enabled();

  const auto& methods = core::table1_methods();
  exp::ExperimentGrid grid;
  grid.base().with_seed(101);
  grid.participations(exp::participations_from_flags(flags, {1.0, 0.5, 0.1}))
      .partitions(exp::partitions_from_flags(
          flags, {{true, 0.0}, {false, 0.8}, {false, 0.3}}))
      .datasets(exp::datasets_from_flags(
          flags, {"mnist", "emnist", "cifar10", "cifar100"}))
      .methods(methods)
      .auto_scale(full)
      .override_each([full](exp::ExperimentSpec& spec) {
        // Paper-scale runs use the paper's CNN on the image suites.
        spec.build.use_cnn = full && (spec.build.dataset == "cifar10" ||
                                      spec.build.dataset == "cifar100");
        // Paper: K=10 at 50/100% participation, K=2 at 10%.  Scale with the
        // reduced fleet in default mode: at 10% of 20 devices only ~2
        // participants show up, so K must be 1 for any ring to exist.
        if (spec.opts.participation <= 0.11) {
          spec.opts.clusters = full ? 2 : 1;
        } else {
          spec.opts.clusters = full ? 10 : 5;
        }
        spec.eval_every = full ? 2 : 3;
      });
  const auto specs = grid.expand();

  // run_grid handles --dispatch/--resume/--quiet, streams per-cell progress
  // to stderr and writes --out (append-safe, atomically, spec-ordered).
  const auto start = std::chrono::steady_clock::now();
  const auto cells = exp::run_grid(specs, grid_options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::printf("\n== Table 1: normalised models-to-target (final accuracy) ==\n");
  std::printf("targets: mnist %.0f%%, emnist %.0f%%, cifar10 %.0f%%, cifar100 %.0f%%\n",
              core::target_accuracy("mnist") * 100, core::target_accuracy("emnist") * 100,
              core::target_accuracy("cifar10") * 100,
              core::target_accuracy("cifar100") * 100);
  std::vector<std::string> header = {"particip", "partition", "dataset"};
  for (const auto& method : methods) header.push_back(method);
  Table table(header);
  // The method axis is innermost, so each table row is one contiguous chunk
  // of methods.size() cells.
  for (std::size_t row_start = 0; row_start + methods.size() <= cells.size();
       row_start += methods.size()) {
    const auto& spec = cells[row_start].spec;
    std::vector<std::string> row = {Table::fmt_pct(spec.opts.participation, 0),
                                    spec.partition_label(), spec.build.dataset};
    for (std::size_t m = 0; m < methods.size(); ++m) {
      row.push_back(cells[row_start + m].result.table_cell());
    }
    table.add_row(std::move(row));
  }
  table.print();
  table.maybe_write_csv("table1");
  const exp::GridScheduler budget(grid_options.scheduler);
  const std::size_t jobs = budget.resolved_jobs(cells.size());
  std::printf("grid: %zu cells, %zu jobs x %zu threads, %.1fs wall\n", cells.size(),
              jobs, budget.inner_threads(jobs), elapsed);
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedhisyn::exp;
  return run_driver(argc, argv, grid_flags({kDatasetFlag, kPartFlag, kPartitionFlag}), run);
}
