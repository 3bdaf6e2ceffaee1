// Figure 2 — "Training accuracy in different cases of device communication".
//
// 100 homogeneous devices (paper setting), CIFAR10-like suite, IID and
// Dirichlet(0.3) partitions.  Five cases: no communication, random
// communication (direct use), random + averaging, ring (direct use), ring +
// averaging.  The series is the mean per-device model accuracy on the global
// test set after each round — the paper's empirical estimate of the
// divergence D.
//
// Expected shape (paper): ring > random > none, and direct-use > averaging,
// in both IID and Non-IID settings.
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

  constexpr core::DecentralMode kModes[] = {
      core::DecentralMode::kNoComm, core::DecentralMode::kRandom,
      core::DecentralMode::kRandomAvg, core::DecentralMode::kRing,
      core::DecentralMode::kRingAvg};

  for (const bool iid : {true, false}) {
    std::printf("== Figure 2%s: CIFAR10-%s ==\n", iid ? "a" : "b",
                iid ? "IID" : "Non-IID (Dirichlet 0.3)");
    core::BuildConfig config;
    config.dataset = "cifar10";
    config.scale = core::default_scale("cifar10", full);
    config.scale.rounds = rounds;
    config.partition.iid = iid;
    config.partition.beta = 0.3;
    config.fleet_kind = core::FleetKind::kHomogeneous;
    config.use_cnn = full;  // paper-scale runs use the paper's CNN
    config.seed = 21;
    const auto experiment = core::build_experiment(config);

    core::FlOptions opts;
    opts.seed = 21;

    std::vector<std::unique_ptr<core::DecentralHomogeneous>> algorithms;
    for (const auto mode : kModes) {
      algorithms.push_back(std::make_unique<core::DecentralHomogeneous>(
          experiment->context(opts), mode));
    }

    std::vector<std::string> header = {"round"};
    for (const auto mode : kModes) header.emplace_back(core::decentral_mode_name(mode));
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
    table.maybe_write_csv(std::string("fig2_") + (iid ? "iid" : "noniid"));
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
