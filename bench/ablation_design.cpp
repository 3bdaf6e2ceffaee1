// Ablation bench for the design choices DESIGN.md calls out (not a paper
// table):
//   1. Aggregation rule: Eq. (9) uniform vs Eq. (10) time-weighted vs
//      Eq. (3) sample-weighted (the FedAvg default the paper argues against
//      for FedHiSyn).
//   2. Receive policy: direct-use (paper §4.2) vs average-on-receive.
//   3. Ring order inside full FedHiSyn (not just the serverless Fig. 3).
// All on the CIFAR10-like Non-IID suite with the heterogeneous fleet.
#include <cstdio>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/presets.hpp"
#include "core/runner.hpp"
#include "exp/driver.hpp"

static int run(const fedhisyn::Flags&, const fedhisyn::exp::GridDriverOptions&) {
  using namespace fedhisyn;
  const bool full = full_scale_enabled();

  core::BuildConfig config;
  config.dataset = "cifar10";
  config.scale = core::default_scale("cifar10", full);
  config.partition.iid = false;
  config.partition.beta = 0.3;
  config.fleet_kind = core::FleetKind::kUniformEpochs;
  config.seed = 81;
  const auto experiment = core::build_experiment(config);
  const float target = core::target_accuracy("cifar10");

  auto run_variant = [&](const char* label, core::FlOptions opts, Table& table) {
    opts.seed = 81;
    core::FedHiSynAlgo algorithm(experiment->context(opts));
    core::ExperimentRunner runner(config.scale.rounds, target);
    runner.set_eval_every(5);
    const auto result = runner.run(algorithm);
    table.add_row({label, result.table_cell(), Table::fmt_pct(result.best_accuracy)});
    std::fflush(stdout);
  };

  std::printf("== Ablation 1: server aggregation rule (FedHiSyn, cifar10 Non-IID) ==\n");
  {
    Table table({"aggregation", "to-target(final)", "best acc"});
    core::FlOptions uniform;
    uniform.aggregation = core::AggregationRule::kUniform;
    run_variant("Eq.9 uniform (paper)", uniform, table);
    core::FlOptions timew;
    timew.aggregation = core::AggregationRule::kTimeWeighted;
    run_variant("Eq.10 time-weighted", timew, table);
    core::FlOptions samplew;
    samplew.aggregation = core::AggregationRule::kSampleWeighted;
    run_variant("Eq.3 sample-weighted", samplew, table);
    table.print();
    table.maybe_write_csv("ablation_aggregation");
  }

  std::printf("\n== Ablation 2: receive policy ==\n");
  {
    Table table({"receive policy", "to-target(final)", "best acc"});
    core::FlOptions direct;
    direct.direct_use = true;
    run_variant("direct-use (paper)", direct, table);
    core::FlOptions averaged;
    averaged.direct_use = false;
    run_variant("average-on-receive", averaged, table);
    table.print();
    table.maybe_write_csv("ablation_receive");
  }

  std::printf("\n== Ablation 3: ring order inside full FedHiSyn ==\n");
  {
    Table table({"ring order", "to-target(final)", "best acc"});
    core::FlOptions s2l;
    s2l.ring_order = sim::RingOrder::kSmallToLarge;
    run_variant("small-to-large (paper)", s2l, table);
    core::FlOptions l2s;
    l2s.ring_order = sim::RingOrder::kLargeToSmall;
    run_variant("large-to-small", l2s, table);
    core::FlOptions random;
    random.ring_order = sim::RingOrder::kRandom;
    run_variant("random", random, table);
    table.print();
    table.maybe_write_csv("ablation_ring_order");
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
