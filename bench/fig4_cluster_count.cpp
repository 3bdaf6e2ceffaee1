// Figure 4 — "Influence of the number of clusters on the training based on
// the ring topology in the case of heterogeneous resources".
//
// Serverless ring circulation with K ∈ {1, 2, 10, 30} clusters over a
// heterogeneous fleet; metric = mean accuracy of the devices in the MOST
// computationally powerful class (the paper's choice).
//
// Expected shape (paper): large K rises fastest initially (fast classes hop
// more) but plateaus lowest (each ring sees less data); K=1 is slowest to
// rise.  In the reduced default scale the K values are scaled to the fleet.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/decentral.hpp"
#include "core/presets.hpp"
#include "exp/driver.hpp"

static int run(const fedhisyn::Flags&, const fedhisyn::exp::GridDriverOptions&) {
  using namespace fedhisyn;
  const bool full = full_scale_enabled();
  const int rounds = full ? 50 : 15;
  const std::vector<std::size_t> ks =
      full ? std::vector<std::size_t>{1, 2, 10, 30} : std::vector<std::size_t>{1, 2, 5, 10};

  for (const bool iid : {true, false}) {
    std::printf("== Figure 4%s: CIFAR10-%s (accuracy of the fastest class) ==\n",
                iid ? "a" : "b", iid ? "IID" : "Non-IID (Dirichlet 0.3)");
    core::BuildConfig config;
    config.dataset = "cifar10";
    config.scale = core::default_scale("cifar10", full);
    config.scale.rounds = rounds;
    config.partition.iid = iid;
    config.partition.beta = 0.3;
    config.fleet_kind = core::FleetKind::kUniformEpochs;
    config.use_cnn = full;  // paper-scale runs use the paper's CNN
    config.seed = 41;
    const auto experiment = core::build_experiment(config);

    std::vector<std::unique_ptr<core::DecentralRing>> algorithms;
    for (const auto k : ks) {
      core::FlOptions opts;
      opts.seed = 41;
      opts.clusters = k;
      algorithms.push_back(
          std::make_unique<core::DecentralRing>(experiment->context(opts)));
    }

    std::vector<std::string> header = {"round"};
    for (const auto k : ks) header.push_back("K=" + std::to_string(k));
    Table table(header);
    const int eval_every = full ? 5 : 3;
    for (int round = 1; round <= rounds; ++round) {
      for (auto& algorithm : algorithms) algorithm->run_round();
      if (round % eval_every != 0 && round != rounds) continue;
      std::vector<std::string> row = {Table::fmt_i(round)};
      for (auto& algorithm : algorithms) {
        row.push_back(Table::fmt_pct(algorithm->fastest_class_accuracy()));
      }
      table.add_row(std::move(row));
    }
    table.print();
    table.maybe_write_csv(std::string("fig4_") + (iid ? "iid" : "noniid"));
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
