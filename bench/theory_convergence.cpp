// §5 / Theorem 5.1 — numerical reproduction of the convergence analysis.
//
// On a mu-strongly-convex, L-smooth federated quadratic with closed-form
// optimum, this harness shows the three analytical claims:
//   1. Gamma = F* - sum_i p_i F_i* grows with data heterogeneity and is 0
//      in the IID case.
//   2. With the theorem's step size eta_t = 2/(mu(gamma+t)), both FedAvg and
//      FedHiSyn-style circulation converge to F* at O(1/R).
//   3. Circulation (each uploaded model has visited many devices, i.e. the
//      ~F_i of §4.2 is closer to F) converges faster than FedAvg, and the
//      advantage grows with heterogeneity — "Gamma of FedHiSyn is smaller".
#include <cstdio>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/convex.hpp"
#include "exp/driver.hpp"

static int run(const fedhisyn::Flags&, const fedhisyn::exp::GridDriverOptions&) {
  using namespace fedhisyn;
  constexpr std::size_t kDevices = 20;
  constexpr std::size_t kDim = 10;
  constexpr double kMu = 1.0;
  constexpr double kL = 4.0;
  constexpr double kSigma = 0.15;
  constexpr int kLocalSteps = 5;
  constexpr int kRounds = 60;

  std::printf("== Claim 1: Gamma tracks heterogeneity (Gamma = F(w*), F_i* = 0) ==\n");
  {
    Table table({"heterogeneity", "Gamma"});
    for (const double h : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      Rng rng(5);
      core::QuadraticFederation fed(kDevices, kDim, kMu, kL, h, rng);
      table.add_row({Table::fmt_f(h, 1), Table::fmt_f(fed.gamma(), 4)});
    }
    table.print();
    table.maybe_write_csv("theory_gamma");
  }

  std::printf("\n== Claims 2+3: suboptimality F(w_R)-F* under Theorem 5.1's step size ==\n");
  for (const double h : {1.0, 3.0}) {
    Rng rng(7);
    core::QuadraticFederation fed(kDevices, kDim, kMu, kL, h, rng);
    Rng run_rng_a(11);
    Rng run_rng_b(11);
    Rng run_rng_c(11);
    const auto fedavg = core::run_fedavg_convex(fed, kRounds, kLocalSteps, kSigma,
                                                run_rng_a);
    const auto ring3 =
        core::run_ring_convex(fed, kRounds, kLocalSteps, /*hops=*/3, kSigma, run_rng_b);
    const auto ring6 =
        core::run_ring_convex(fed, kRounds, kLocalSteps, /*hops=*/6, kSigma, run_rng_c);

    std::printf("heterogeneity %.1f (Gamma %.3f):\n", h, fed.gamma());
    Table table({"round", "FedAvg (hops=1)", "ring hops=3", "ring hops=6",
                 "O(1/R) envelope"});
    const double envelope0 = fedavg.suboptimality.front();
    for (int round : {1, 2, 5, 10, 20, 40, 60}) {
      const auto idx = static_cast<std::size_t>(round - 1);
      table.add_row({Table::fmt_i(round), Table::fmt_f(fedavg.suboptimality[idx], 5),
                     Table::fmt_f(ring3.suboptimality[idx], 5),
                     Table::fmt_f(ring6.suboptimality[idx], 5),
                     Table::fmt_f(envelope0 / round, 5)});
    }
    table.print();
    table.maybe_write_csv(h < 2.0 ? "theory_convergence_h1" : "theory_convergence_h3");
    std::printf("\n");
  }
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
