// Figure 3 — "The impact of different topological organizations on the
// training model accuracy".
//
// Heterogeneous fleet, one ring over all devices (K=1), three orderings:
// random, small-to-large (FedHiSyn's choice), large-to-small.  Serverless
// circulation on the virtual-time engine; metric = mean per-device accuracy.
//
// Expected shape (paper): small-to-large ≈ large-to-small >> random, and the
// Non-IID curves sit ~10% below IID (catastrophic forgetting without a
// server).
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

  constexpr sim::RingOrder kOrders[] = {sim::RingOrder::kRandom,
                                        sim::RingOrder::kSmallToLarge,
                                        sim::RingOrder::kLargeToSmall};

  for (const bool iid : {true, false}) {
    std::printf("== Figure 3%s: CIFAR10-%s ==\n", iid ? "a" : "b",
                iid ? "IID" : "Non-IID (Dirichlet 0.3)");
    core::BuildConfig config;
    config.dataset = "cifar10";
    config.scale = core::default_scale("cifar10", full);
    config.scale.rounds = rounds;
    config.partition.iid = iid;
    config.partition.beta = 0.3;
    config.fleet_kind = core::FleetKind::kUniformEpochs;
    config.use_cnn = full;  // paper-scale runs use the paper's CNN
    config.seed = 31;
    const auto experiment = core::build_experiment(config);

    std::vector<std::unique_ptr<core::DecentralRing>> algorithms;
    for (const auto order : kOrders) {
      core::FlOptions opts;
      opts.seed = 31;
      opts.clusters = 1;  // one ring over every device
      opts.ring_order = order;
      algorithms.push_back(
          std::make_unique<core::DecentralRing>(experiment->context(opts)));
    }

    std::vector<std::string> header = {"round"};
    for (const auto order : kOrders) header.emplace_back(sim::ring_order_name(order));
    Table table(header);
    const int eval_every = full ? 5 : 3;
    for (int round = 1; round <= rounds; ++round) {
      for (auto& algorithm : algorithms) algorithm->run_round();
      if (round % eval_every != 0 && round != rounds) continue;
      std::vector<std::string> row = {Table::fmt_i(round)};
      for (auto& algorithm : algorithms) {
        row.push_back(Table::fmt_pct(algorithm->evaluate_test_accuracy()));
      }
      table.add_row(std::move(row));
    }
    table.print();
    table.maybe_write_csv(std::string("fig3_") + (iid ? "iid" : "noniid"));
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
