// ParallelExecutor pool semantics, FEDHISYN_THREADS resolution, and the
// determinism contract: for every algorithm, a 1-thread run and an N-thread
// run of the same seeded experiment are bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/decentral.hpp"
#include "core/registry.hpp"
#include "core/fedhisyn_algo.hpp"
#include "core/presets.hpp"
#include "core/runner.hpp"

namespace fedhisyn {
namespace {

// ------------------------------------------------------------------- pool --

TEST(ParallelExecutor, EmptyRangeNeverInvokesBody) {
  ParallelExecutor pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelExecutor, SingleItemRunsInlineOnCaller) {
  ParallelExecutor pool(4);
  std::atomic<int> calls{0};
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    // n == 1 short-circuits to the calling thread.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelExecutor, EveryIndexRunsExactlyOnce) {
  ParallelExecutor pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelExecutor, NestedParallelForRunsInlineWithoutDeadlock) {
  ParallelExecutor pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ParallelExecutor::in_parallel_region());
    // Re-entering the same pool must execute inline on this thread, so the
    // outer body's thread-local scratch is the inner body's too.
    const auto outer_thread = std::this_thread::get_id();
    pool.parallel_for(8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      ++inner_calls;
    });
  });
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ParallelExecutor, BodyExceptionPropagatesToCaller) {
  ParallelExecutor pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must survive the exception and run the next job normally.
  std::atomic<int> calls{0};
  pool.parallel_for(10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelExecutor, SetThreadCountResizesAndClampsToOne) {
  ParallelExecutor pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  pool.set_thread_count(5);
  EXPECT_EQ(pool.thread_count(), 5u);
  pool.set_thread_count(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> calls{0};
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);  // no workers left
    ++calls;
  });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ParallelExecutor, ResizeAfterUseRunsNextJobExactlyOnce) {
  // Regression: workers spawned by a resize must not inherit the previous
  // generation counter and execute a phantom job.
  ParallelExecutor pool(2);
  for (const std::size_t threads : {3u, 1u, 4u, 2u}) {
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
    pool.set_thread_count(threads);
  }
}

TEST(ParallelExecutor, InlineBodyExceptionRestoresParallelRegionFlag) {
  // Regression: a throw on the inline (serial / n==1 / nested) path must not
  // leave the thread marked as inside a parallel region, which would silently
  // serialise every later loop on it.
  ParallelExecutor pool(1);  // workers_.empty() forces the inline path
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_FALSE(ParallelExecutor::in_parallel_region());
  ParallelExecutor wide(4);
  EXPECT_THROW(wide.parallel_for(
                   1, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_FALSE(ParallelExecutor::in_parallel_region());
}

TEST(ParallelExecutor, EnvOverrideControlsDefaultThreadCount) {
  ::setenv("FEDHISYN_THREADS", "3", 1);
  EXPECT_EQ(ParallelExecutor::threads_from_env(), 3u);
  ParallelExecutor pool;  // 0 = resolve from env
  EXPECT_EQ(pool.thread_count(), 3u);

  ::setenv("FEDHISYN_THREADS", "not-a-number", 1);
  EXPECT_THROW(ParallelExecutor::threads_from_env(), CheckError);
  ::setenv("FEDHISYN_THREADS", "-2", 1);
  EXPECT_GE(ParallelExecutor::threads_from_env(), 1u);
  ::unsetenv("FEDHISYN_THREADS");
  EXPECT_GE(ParallelExecutor::threads_from_env(), 1u);
}

// ---------------------------------------------------------- determinism --

/// A tiny heterogeneous world: 6 devices at ratio-4 speeds, Non-IID shards,
/// 2 classes — enough to exercise rings with multiple jobs per interval,
/// FedAT tiers, and async re-downloads.
std::shared_ptr<core::BuiltExperiment> tiny_world() {
  core::BuildConfig config;
  config.dataset = "mnist";
  config.scale.devices = 6;
  config.scale.train_samples_per_device = 20;
  config.scale.test_samples = 60;
  config.partition.iid = false;
  config.partition.beta = 0.5;
  config.fleet_kind = core::FleetKind::kRatio;
  config.fleet_ratio_h = 4.0;
  config.mlp_hidden = {8};
  config.seed = 7;
  return core::build_experiment(config);
}

core::FlOptions tiny_options() {
  core::FlOptions opts;
  opts.local_epochs = 1;
  opts.batch_size = 10;
  opts.clusters = 2;
  opts.seed = 11;
  return opts;
}

struct RunCapture {
  core::ExperimentResult result;
  std::vector<float> final_weights;
};

RunCapture run_with_threads(const core::BuiltExperiment& world, const std::string& name,
                            std::size_t threads) {
  ParallelExecutor::global().set_thread_count(threads);
  const auto ctx = world.context(tiny_options());
  auto algorithm = core::make_algorithm(name, ctx);
  core::ExperimentRunner runner(/*rounds=*/3, /*target_accuracy=*/0.999f);
  RunCapture capture;
  capture.result = runner.run(*algorithm);
  const auto weights = algorithm->global_weights();
  capture.final_weights.assign(weights.begin(), weights.end());
  ParallelExecutor::global().set_thread_count(ParallelExecutor::threads_from_env());
  return capture;
}

void expect_identical(const RunCapture& serial, const RunCapture& parallel,
                      const std::string& name) {
  ASSERT_EQ(serial.result.history.size(), parallel.result.history.size()) << name;
  for (std::size_t r = 0; r < serial.result.history.size(); ++r) {
    const auto& a = serial.result.history[r];
    const auto& b = parallel.result.history[r];
    ASSERT_EQ(a.accuracy, b.accuracy) << name << " round " << a.round;
    ASSERT_EQ(a.comm_rounds, b.comm_rounds) << name << " round " << a.round;
    ASSERT_EQ(a.d2d_transfers, b.d2d_transfers) << name << " round " << a.round;
  }
  ASSERT_EQ(serial.final_weights, parallel.final_weights) << name;
}

TEST(ParallelDeterminism, SerialAndFourThreadRunsAreBitIdentical) {
  const auto world = tiny_world();
  // The seven algorithm families of the paper's comparison, via the registry.
  const std::vector<std::string> methods = {"FedAvg",   "TFedAvg", "FedProx",
                                            "TAFedAvg", "FedAsync", "FedAT",
                                            "SCAFFOLD", "FedHiSyn"};
  for (const auto& name : methods) {
    const auto serial = run_with_threads(*world, name, 1);
    const auto parallel = run_with_threads(*world, name, 4);
    expect_identical(serial, parallel, name);
  }
}

TEST(ParallelDeterminism, AveragingAblationWithLinkDelaysIsBitIdentical) {
  // Covers the ring engine's two-input (averaging) DAG jobs and the
  // in-flight delivery path: direct_use=false plus non-zero link delays on
  // half the fleet.
  auto world = tiny_world();
  for (std::size_t d = 0; d < world->fleet.size(); ++d) {
    if (d % 2 == 1) world->fleet[d].link_delay = 0.3;
  }
  const auto run = [&](std::size_t threads) {
    ParallelExecutor::global().set_thread_count(threads);
    auto opts = tiny_options();
    opts.direct_use = false;
    const auto ctx = world->context(opts);
    core::FedHiSynAlgo hisyn(ctx);
    core::DecentralRing ring(ctx);
    std::vector<float> accuracies;
    for (int round = 0; round < 3; ++round) {
      hisyn.run_round();
      ring.run_round();
      accuracies.push_back(hisyn.evaluate_test_accuracy());
      accuracies.push_back(ring.evaluate_test_accuracy());
    }
    const auto weights = hisyn.global_weights();
    accuracies.insert(accuracies.end(), weights.begin(), weights.end());
    ParallelExecutor::global().set_thread_count(ParallelExecutor::threads_from_env());
    return accuracies;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, DecentralModesAreBitIdentical) {
  const auto world = tiny_world();
  const auto run_decentral = [&](std::size_t threads) {
    ParallelExecutor::global().set_thread_count(threads);
    const auto ctx = world->context(tiny_options());
    core::DecentralRing ring(ctx);
    core::DecentralHomogeneous homogeneous(ctx, core::DecentralMode::kRingAvg);
    std::vector<float> accuracies;
    for (int round = 0; round < 3; ++round) {
      ring.run_round();
      homogeneous.run_round();
      accuracies.push_back(ring.evaluate_test_accuracy());
      accuracies.push_back(homogeneous.evaluate_test_accuracy());
    }
    ParallelExecutor::global().set_thread_count(ParallelExecutor::threads_from_env());
    return accuracies;
  };
  const auto serial = run_decentral(1);
  const auto parallel = run_decentral(4);
  ASSERT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, ShardedTestEvaluationIsBitIdentical) {
  // Network::accuracy shards the test set over the pool in chunks of
  // `batch`; chunk boundaries are thread-count independent and per-chunk
  // correct counts are integers, so any pool size must produce the same
  // bits.  Use a small batch so the 60-sample test set spans many chunks.
  const auto world = tiny_world();
  Rng rng(3);
  const auto weights = world->network->init_weights(rng);
  const auto& test = world->fed.test;
  const auto eval = [&](std::size_t threads) {
    ParallelExecutor::global().set_thread_count(threads);
    const float accuracy = world->network->accuracy(
        weights, test.x, std::span<const std::int32_t>(test.y), /*batch=*/7);
    ParallelExecutor::global().set_thread_count(ParallelExecutor::threads_from_env());
    return accuracy;
  };
  const float serial = eval(1);
  const float parallel = eval(4);
  ASSERT_EQ(serial, parallel);
  // And the chunked result matches a whole-set forward pass.
  const float one_chunk = world->network->accuracy(
      weights, test.x, std::span<const std::int32_t>(test.y), /*batch=*/1024);
  ASSERT_EQ(serial, one_chunk);
}

}  // namespace
}  // namespace fedhisyn
