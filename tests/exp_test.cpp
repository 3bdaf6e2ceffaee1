// Tests for the declarative experiment layer: grid expansion (axis product,
// call-order nesting, override hooks), the algorithm registry, spec
// label()/to_key() stability, and GridScheduler determinism (serial vs
// concurrent cells byte-identical, ordered collection).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "core/registry.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "scoped_env.hpp"

namespace fedhisyn::exp {
namespace {

/// A grid whose cells run in well under a second: 6 devices, 2 rounds.
ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.base().with_seed(11);
  grid.base().build.scale.devices = 6;
  grid.base().build.scale.train_samples_per_device = 20;
  grid.base().build.scale.test_samples = 60;
  grid.base().build.scale.rounds = 2;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 2;
  grid.base().target = 0.999f;
  return grid;
}

// ------------------------------------------------------------------ grid --

TEST(Grid, AxisProductAndCallOrderNesting) {
  ExperimentGrid grid;
  grid.datasets({"mnist", "emnist"})
      .participations({1.0, 0.5, 0.1})
      .methods({"FedAvg", "FedHiSyn"});
  EXPECT_EQ(grid.cell_count(), 12u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 12u);
  // First axis set (dataset) is outermost, methods innermost.
  EXPECT_EQ(specs[0].build.dataset, "mnist");
  EXPECT_EQ(specs[0].opts.participation, 1.0);
  EXPECT_EQ(specs[0].method, "FedAvg");
  EXPECT_EQ(specs[1].method, "FedHiSyn");
  EXPECT_EQ(specs[2].opts.participation, 0.5);
  EXPECT_EQ(specs[6].build.dataset, "emnist");
  EXPECT_EQ(specs[11].build.dataset, "emnist");
  EXPECT_EQ(specs[11].opts.participation, 0.1);
  EXPECT_EQ(specs[11].method, "FedHiSyn");
}

TEST(Grid, UnsetAxesInheritTheBaseSpec) {
  ExperimentGrid grid;
  grid.base().with_seed(42);
  grid.base().method = "SCAFFOLD";
  grid.base().opts.participation = 0.25;
  grid.participations({0.5});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].method, "SCAFFOLD");       // no method axis -> base value
  EXPECT_EQ(specs[0].opts.participation, 0.5);  // the axis overrode the base
  EXPECT_EQ(specs[0].opts.seed, 42u);
}

TEST(Grid, OverrideHookSeesAxisValues) {
  // The table1 rule: clusters as a function of participation.
  ExperimentGrid grid;
  grid.participations({1.0, 0.1}).override_each([](ExperimentSpec& spec) {
    spec.opts.clusters = spec.opts.participation <= 0.11 ? 1 : 5;
  });
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].opts.clusters, 5u);
  EXPECT_EQ(specs[1].opts.clusters, 1u);
}

TEST(Grid, AutoScaleSetsPerDatasetScaleAndTarget) {
  ExperimentGrid grid;
  grid.datasets({"mnist", "cifar10"}).auto_scale(/*full=*/false);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].build.scale.rounds, core::default_scale("mnist", false).rounds);
  EXPECT_EQ(specs[1].build.scale.rounds, core::default_scale("cifar10", false).rounds);
  EXPECT_FLOAT_EQ(specs[0].resolved_target(), core::target_accuracy("mnist"));
  EXPECT_FLOAT_EQ(specs[1].resolved_target(), core::target_accuracy("cifar10"));
}

TEST(Grid, HeterogeneityAxisSwitchesTheFleetKind) {
  ExperimentGrid grid;
  grid.heterogeneity_ratios({2.0, 10.0});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].build.fleet_kind, core::FleetKind::kRatio);
  EXPECT_EQ(specs[0].build.fleet_ratio_h, 2.0);
  EXPECT_EQ(specs[1].build.fleet_ratio_h, 10.0);
}

TEST(Grid, EmptyAxisAndDuplicateAxisAreRejected) {
  ExperimentGrid grid;
  EXPECT_THROW(grid.datasets({}), CheckError);
  ExperimentGrid grid2;
  grid2.methods({"FedAvg"});
  EXPECT_THROW(grid2.methods({"FedHiSyn"}), CheckError);
}

// -------------------------------------------------------------- registry --

TEST(Registry, RoundTripForEveryTable1Method) {
  const auto registered = core::registered_methods();
  ASSERT_GE(registered.size(), 8u);
  EXPECT_TRUE(std::is_sorted(registered.begin(), registered.end()));
  const auto world = tiny_grid().expand();
  const auto built = build_for(world[0]);
  for (const auto& name : core::table1_methods()) {
    EXPECT_TRUE(core::algorithm_registered(name)) << name;
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << name;
    const auto algorithm =
        core::make_algorithm(name, built->context(world[0].opts));
    ASSERT_NE(algorithm, nullptr);
    EXPECT_EQ(algorithm->name(), name);
  }
  EXPECT_TRUE(core::algorithm_registered("FedAsync"));
}

TEST(Registry, UnknownNameThrowsAndNamesTheKnownMethods) {
  const auto world = tiny_grid().expand();
  const auto built = build_for(world[0]);
  try {
    core::make_algorithm("FedBogus", built->context(world[0].opts));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FedBogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FedHiSyn"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationIsRejected) {
  EXPECT_THROW(core::register_algorithm(
                   "FedAvg", "duplicate", [](const core::FlContext&) {
                     return std::unique_ptr<core::FlAlgorithm>();
                   }),
               CheckError);
}

TEST(Registry, EveryMethodHasADescription) {
  for (const auto& name : core::registered_methods()) {
    EXPECT_FALSE(core::method_description(name).empty()) << name;
  }
  EXPECT_THROW(core::method_description("FedBogus"), CheckError);
}

// ------------------------------------------------------------------ spec --

TEST(Spec, LabelAndKeyAreStable) {
  ExperimentSpec spec;
  spec.with_seed(101);
  spec.build.dataset = "mnist";
  spec.build.partition = {false, 0.3};
  spec.opts.participation = 0.5;
  spec.opts.clusters = 5;
  spec.method = "FedHiSyn";
  spec.target = 0.85f;
  spec.eval_every = 3;
  // Pinned strings: result sinks and caches key on them, so accidental
  // format changes should fail loudly here.
  EXPECT_EQ(spec.label(), "mnist/Dirichlet(0.3)/p50/FedHiSyn/s101");
  EXPECT_EQ(spec.to_key(),
            "ds=mnist|dev=100|spd=100|test=2000|part=dirichlet|beta=0.3"
            "|fleet=uniform|cnn=0|hidden=auto|bseed=101|method=FedHiSyn"
            "|rounds=100|lr=0.1|batch=50|epochs=5|p=0.5|K=5|agg=uniform"
            "|ring=small-to-large|direct=1|mu=0.01|mom=0|alpha=0.3|seed=101"
            "|target=0.85|eval=3");
}

TEST(Spec, KeyDistinguishesEveryKnob) {
  ExperimentSpec base;
  const std::string reference = base.to_key();
  ExperimentSpec changed = base;
  changed.method = "FedAvg";
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.opts.lr = 0.05f;
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.build.partition.iid = false;  // the default is IID
  EXPECT_NE(changed.to_key(), reference);
  changed = base;
  changed.with_seed(7);
  EXPECT_NE(changed.to_key(), reference);
  // build_key ignores run-time knobs: cells differing only by method share
  // a build.
  changed = base;
  changed.method = "SCAFFOLD";
  changed.opts.lr = 0.2f;
  EXPECT_EQ(changed.build_key(), base.build_key());
}

TEST(Spec, ResolvedTargetFallsBackToTheSuiteDefault) {
  ExperimentSpec spec;
  spec.build.dataset = "emnist";
  EXPECT_FLOAT_EQ(spec.resolved_target(), core::target_accuracy("emnist"));
  spec.target = 0.5f;
  EXPECT_FLOAT_EQ(spec.resolved_target(), 0.5f);
}

// ------------------------------------------------------------- scheduler --

TEST(Scheduler, SerialAndConcurrentRunsAreByteIdentical) {
  auto grid = tiny_grid();
  grid.datasets({"mnist"}).methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  const auto serial = GridScheduler(serial_options).run(specs);

  GridScheduler::Options parallel_options;
  parallel_options.jobs = 4;
  const auto parallel = GridScheduler(parallel_options).run(specs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Byte-level: the exact strings the --out sinks would emit.
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(parallel[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(parallel[i])) << i;
  }
}

TEST(Scheduler, ResultsAreCollectedInSpecOrder) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn", "FedAT"});
  const auto specs = grid.expand();
  GridScheduler::Options options;
  options.jobs = 3;
  const auto cells = GridScheduler(options).run(specs);
  ASSERT_EQ(cells.size(), specs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].spec.label(), specs[i].label());
  }
}

TEST(Scheduler, ProgressCallbackFiresOncePerCell) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn"});
  GridScheduler::Options options;
  options.jobs = 2;
  std::size_t calls = 0;
  std::size_t last_total = 0;
  options.on_cell = [&](std::size_t done, std::size_t total, const CellResult&) {
    EXPECT_EQ(done, calls + 1);  // the callback is serialised
    ++calls;
    last_total = total;
  };
  GridScheduler(options).run(grid.expand());
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(last_total, 2u);
}

TEST(Scheduler, SharedBuildsMatchPrivateBuilds) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedHiSyn"});
  const auto specs = grid.expand();
  const auto a = GridScheduler().run(specs);
  std::vector<CellResult> b;
  {
    // A zero budget disables the build cache: every cell builds privately.
    ScopedEnv disable("FEDHISYN_BUILD_CACHE_MB", "0");
    b = GridScheduler().run(specs);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(a[i]), to_jsonl_line(b[i])) << i;
  }
}

TEST(Scheduler, CellExceptionsPropagate) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg", "FedBogus"});
  GridScheduler::Options options;
  options.jobs = 2;
  EXPECT_THROW(GridScheduler(options).run(grid.expand()), CheckError);
}

TEST(Scheduler, TwoLevelThreadBudget) {
  GridScheduler::Options options;
  options.jobs = 4;
  options.total_threads = 8;
  const GridScheduler scheduler(options);
  EXPECT_EQ(scheduler.resolved_jobs(100), 4u);
  EXPECT_EQ(scheduler.resolved_jobs(2), 2u);  // clamped to the cell count
  EXPECT_EQ(scheduler.inner_threads(4), 2u);
  EXPECT_EQ(scheduler.inner_threads(8), 1u);
  EXPECT_EQ(scheduler.inner_threads(16), 1u);  // never zero
}

// ---------------------------------------------------------------- driver --

/// The CheckError message of `fn`, or "" when it does not throw one.
template <typename Fn>
std::string check_failure(const Fn& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Driver, NonPositiveThreadAndJobCountsFailNamingTheFlag) {
  const std::size_t threads = ParallelExecutor::global().thread_count();
  for (const std::string arg :
       {"--threads=0", "--threads=-2", "--grid-jobs=0", "--grid-jobs=-1"}) {
    const char* argv[] = {arg.c_str()};
    const Flags flags = Flags::parse(1, argv);
    const std::string name = arg.substr(0, arg.find('='));
    EXPECT_NE(check_failure([&] { handle_grid_flags(flags); }).find(name),
              std::string::npos)
        << arg;
  }
  EXPECT_EQ(ParallelExecutor::global().thread_count(), threads);
}

TEST(Driver, ParticipationAndPartitionValuesParseStrictly) {
  const char* good[] = {"--part=100,50", "--partition=iid,dir0.3"};
  const Flags flags = Flags::parse(2, good);
  EXPECT_EQ(participations_from_flags(flags, {}), (std::vector<double>{1.0, 0.5}));
  const auto partitions = partitions_from_flags(flags, {});
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_TRUE(partitions[0].iid);
  EXPECT_FALSE(partitions[1].iid);
  EXPECT_DOUBLE_EQ(partitions[1].beta, 0.3);

  // Out of range (ERANGE), trailing junk, NaN and infinity all fail, naming
  // the flag, instead of yielding an infinite Dirichlet beta or a prefix.
  for (const std::string arg :
       {"--part=1e999", "--part=50x", "--part=0", "--part=nan", "--part=inf",
        "--partition=dir1e999", "--partition=dirinf", "--partition=dirnan",
        "--partition=dir0", "--partition=dir", "--partition=dir0.3x"}) {
    const char* argv[] = {arg.c_str()};
    const Flags bad = Flags::parse(1, argv);
    const std::string name = arg.substr(0, arg.find('='));
    const std::string message = check_failure([&] {
      participations_from_flags(bad, {});
      partitions_from_flags(bad, {});
    });
    EXPECT_NE(message.find(name), std::string::npos) << arg << ": " << message;
  }
}

// ----------------------------------------------------------------- sinks --

TEST(Sinks, JsonlMarksUnreachedTargetsAsNull) {
  CellResult cell;
  cell.spec.build.dataset = "mnist";
  cell.result.final_accuracy = 0.5f;
  const auto line = to_jsonl_line(cell);
  EXPECT_NE(line.find("\"comm_to_target\":null"), std::string::npos);
  EXPECT_NE(line.find("\"rounds_to_target\":null"), std::string::npos);
  cell.result.comm_to_target = 12.0;
  cell.result.rounds_to_target = 9;
  const auto reached = to_jsonl_line(cell);
  EXPECT_NE(reached.find("\"comm_to_target\":12"), std::string::npos);
  EXPECT_NE(reached.find("\"rounds_to_target\":9"), std::string::npos);
}

}  // namespace
}  // namespace fedhisyn::exp
