// Fleet anatomy: how FedHiSyn turns a heterogeneous device fleet into
// clustered rings, and what happens inside one round.
//
// Demonstrates the lower-level public API: fleet generators, k-means
// clustering on local-training times, ring construction, and the
// per-round introspection FedHiSynAlgo exposes (jobs per device, ring hops,
// class count).  Run: ./build/examples/heterogeneous_fleet
#include <cstdio>

#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/presets.hpp"
#include "exp/driver.hpp"
#include "sim/ring.hpp"

static int run(const fedhisyn::Flags&, const fedhisyn::exp::GridDriverOptions&) {
  using namespace fedhisyn;

  // A 20-device fleet whose achievable epochs per round span the paper's
  // [5, 50] range (so the slowest device is 10x slower than the fastest).
  Rng rng(3);
  const auto fleet = sim::make_fleet_uniform_epochs(20, rng);
  std::vector<double> job_times(fleet.size());
  for (std::size_t d = 0; d < fleet.size(); ++d) {
    job_times[d] = sim::local_training_time(fleet[d], /*epochs=*/5);
  }

  // Cluster by local-training time, exactly as the FedHiSyn server does.
  const auto clustering = cluster::kmeans_1d(job_times, /*k=*/4, rng);
  const auto groups = cluster::group_by_cluster(clustering);
  std::printf("fleet of %zu devices clustered into %zu classes:\n", fleet.size(),
              clustering.k);
  for (std::size_t c = 0; c < groups.size(); ++c) {
    std::printf("  class %zu (mean job %.1f): devices", c, clustering.centroids[c]);
    for (const auto d : groups[c]) std::printf(" %zu", d);
    std::printf("\n");
  }

  // Build the small-to-large ring for the fastest class and walk it.
  std::vector<std::size_t> members(groups[0].begin(), groups[0].end());
  const auto ring =
      sim::RingTopology::build(members, job_times, sim::RingOrder::kSmallToLarge, rng);
  std::printf("\nfastest class ring (small-to-large): ");
  std::size_t current = ring.ordered_members().front();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    std::printf("%zu(t=%.1f) -> ", current, job_times[current]);
    current = ring.successor(current);
  }
  std::printf("back to %zu\n", current);

  // Now run three full FedHiSyn rounds and watch the machinery.
  core::BuildConfig config;
  config.dataset = "mnist";
  config.scale.devices = 20;
  config.scale.train_samples_per_device = 40;
  config.scale.test_samples = 400;
  config.partition.iid = false;
  config.partition.beta = 0.3;
  config.seed = 3;
  const auto experiment = core::build_experiment(config);
  core::FlOptions opts;
  opts.clusters = 4;
  opts.seed = 3;
  core::FedHiSynAlgo algorithm(experiment->context(opts));

  Table table({"round", "classes", "ring hops", "min jobs", "max jobs", "test acc"});
  for (int round = 1; round <= 3; ++round) {
    algorithm.run_round();
    std::int64_t min_jobs = 1 << 30;
    std::int64_t max_jobs = 0;
    for (const auto jobs : algorithm.last_jobs_completed()) {
      if (jobs == 0) continue;  // non-participants
      min_jobs = std::min(min_jobs, jobs);
      max_jobs = std::max(max_jobs, jobs);
    }
    table.add_row({Table::fmt_i(round), Table::fmt_i(algorithm.last_class_count()),
                   Table::fmt_i(algorithm.last_round_hops()), Table::fmt_i(min_jobs),
                   Table::fmt_i(max_jobs),
                   Table::fmt_pct(algorithm.evaluate_test_accuracy())});
  }
  std::printf("\n");
  table.print();
  std::printf("\nNote how fast devices complete ~10x the jobs of slow ones —\n"
              "the straggler effect becomes useful work inside fast rings.\n");
  return 0;
}

int main(int argc, char** argv) { return fedhisyn::exp::run_driver(argc, argv, {}, run); }
