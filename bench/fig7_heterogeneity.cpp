// Figure 7 — "Influence of the degree of resource heterogeneity".
//
// Fleets with exact heterogeneity ratio H = t_max/t_min ∈ {2, 5, 10, 20},
// MNIST-like and CIFAR10-like suites, 50% participation, Dirichlet(0.3).
// Declared as an ExperimentGrid; --grid-jobs N fans the cells out (see
// docs/CONFIG.md for the shared flags).
//
// Expected shape (paper): FedAvg's final accuracy FALLS as H grows (more
// stale/imbalanced local work), while FedHiSyn's RISES (fast rings complete
// more circulations per round, mixing more data knowledge).
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"

namespace {

int run(const fedhisyn::Flags& flags,
        const fedhisyn::exp::GridDriverOptions& grid_options) {
  using namespace fedhisyn;
  const bool full = full_scale_enabled();

  const std::vector<std::string> methods = {"FedAvg", "FedHiSyn"};
  const std::vector<double> ratios = {2.0, 5.0, 10.0, 20.0};
  exp::ExperimentGrid grid;
  grid.base().with_seed(71);
  grid.base().build.partition = {false, 0.3};
  grid.base().opts.participation = 0.5;
  grid.base().eval_every = 5;
  grid.datasets(exp::datasets_from_flags(flags, {"mnist", "cifar10"}))
      .heterogeneity_ratios(ratios)
      .methods(methods)
      .auto_scale(full)
      .override_each([full](exp::ExperimentSpec& spec) {
        spec.build.use_cnn = full && spec.build.dataset != "mnist";
        // Final-accuracy sweep: an unreachable target disables the
        // rounds-to-target metric (the figure plots accuracy only).
        spec.target = 0.99f;
      });
  const auto cells = exp::run_grid(grid.expand(), grid_options);

  // dataset is the outermost axis, H next, methods innermost: each dataset
  // block is |H| rows of |methods| cells.
  const std::size_t per_row = methods.size();
  const std::size_t per_dataset = ratios.size() * per_row;
  for (std::size_t block = 0; block + per_dataset <= cells.size();
       block += per_dataset) {
    const std::string& dataset = cells[block].spec.build.dataset;
    std::printf("== Figure 7: final accuracy vs heterogeneity H (%s) ==\n",
                dataset.c_str());
    Table table({"H", "FedAvg", "FedHiSyn"});
    for (std::size_t row = block; row < block + per_dataset; row += per_row) {
      std::vector<std::string> cols = {
          "H=" + Table::fmt_f(cells[row].spec.build.fleet_ratio_h, 0)};
      for (std::size_t m = 0; m < per_row; ++m) {
        cols.push_back(Table::fmt_pct(cells[row + m].result.final_accuracy));
      }
      table.add_row(std::move(cols));
    }
    table.print();
    table.maybe_write_csv("fig7_" + dataset);
    std::printf("\n");
  }
  if (!grid_options.out.empty()) {
    std::printf("results written to %s\n", grid_options.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedhisyn::exp;
  return run_driver(argc, argv, grid_flags({kDatasetFlag}), run);
}
