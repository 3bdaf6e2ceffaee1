// Tests for the extension surface: the flag parser, weight serialization,
// heavy-ball momentum, and the FedAsync staleness-aware baseline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/fedasync.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "nn/update.hpp"

namespace fedhisyn {
namespace {

// ------------------------------------------------------------------ Flags --

TEST(Flags, ParsesKeyEqualsValue) {
  const char* argv[] = {"--dataset=cifar10", "--rounds=50"};
  const auto flags = Flags::parse(2, argv);
  EXPECT_EQ(flags.get("dataset", ""), "cifar10");
  EXPECT_EQ(flags.get_long("rounds", 0), 50);
}

TEST(Flags, ParsesKeySpaceValue) {
  const char* argv[] = {"--method", "FedAT", "--beta", "0.8"};
  const auto flags = Flags::parse(4, argv);
  EXPECT_EQ(flags.get("method", ""), "FedAT");
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 0.8);
}

TEST(Flags, BooleanSwitches) {
  const char* argv[] = {"--iid", "--cnn", "--verbose=false"};
  const auto flags = Flags::parse(3, argv);
  EXPECT_TRUE(flags.get_bool("iid"));
  EXPECT_TRUE(flags.get_bool("cnn"));
  EXPECT_FALSE(flags.get_bool("verbose", true));
  EXPECT_FALSE(flags.get_bool("absent", false));

  const char* spelled[] = {"--a=yes", "--b=1", "--c=no", "--d=0"};
  const auto words = Flags::parse(4, spelled);
  EXPECT_TRUE(words.get_bool("a"));
  EXPECT_TRUE(words.get_bool("b"));
  EXPECT_FALSE(words.get_bool("c", true));
  EXPECT_FALSE(words.get_bool("d", true));

  // Any other value check-fails, naming the flag: a typo ("ture") and a
  // switch that swallowed the next token as its value (`--resume
  // results.jsonl` used to read as false and silently skip resuming).
  const char* bad[] = {"--quiet=ture", "--resume", "results.jsonl"};
  const auto typos = Flags::parse(3, bad);
  for (const char* key : {"quiet", "resume"}) {
    try {
      typos.get_bool(key);
      FAIL() << "expected CheckError for --" << key;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key + "='"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Flags, PositionalAndFallbacks) {
  const char* argv[] = {"subcommand", "--x=1", "file.txt"};
  const auto flags = Flags::parse(3, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "subcommand");
  EXPECT_EQ(flags.positional()[1], "file.txt");
  EXPECT_EQ(flags.get_long("x", 9), 1);
  EXPECT_EQ(flags.get_long("missing", 9), 9);
  EXPECT_EQ(flags.get("missing", "z"), "z");
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 1.0);
}

TEST(Flags, MalformedNumbersFailLoudly) {
  // A value that is not entirely a number check-fails, naming the flag,
  // instead of falling back ("abc") or truncating to its prefix ("4x").
  const char* argv[] = {"--n=abc", "--m=4x"};
  const auto flags = Flags::parse(2, argv);
  EXPECT_THROW(flags.get_long("n", 7), CheckError);
  EXPECT_THROW(flags.get_double("n", 2.5), CheckError);
  EXPECT_THROW(flags.get_double("m", 2.5), CheckError);
  try {
    flags.get_long("m", 7);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--m='4x'"), std::string::npos);
  }
}

// -------------------------------------------------------------- Serialize --

TEST(Serialize, RoundTripsWeights) {
  Rng rng(1);
  std::vector<float> weights(1234);
  for (auto& w : weights) w = static_cast<float>(rng.normal());
  const std::string path = "/tmp/fedhisyn_serialize_test.fhsw";
  nn::save_weights(path, weights);
  const auto loaded = nn::load_weights(path);
  EXPECT_EQ(loaded, weights);
  std::remove(path.c_str());
}

TEST(Serialize, EmptyBlobRoundTrips) {
  const std::string path = "/tmp/fedhisyn_serialize_empty.fhsw";
  nn::save_weights(path, {});
  EXPECT_TRUE(nn::load_weights(path).empty());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(nn::load_weights("/tmp/definitely_not_there.fhsw"), CheckError);
}

TEST(Serialize, RejectsCorruptPayload) {
  Rng rng(2);
  std::vector<float> weights(64);
  for (auto& w : weights) w = static_cast<float>(rng.normal());
  const std::string path = "/tmp/fedhisyn_serialize_corrupt.fhsw";
  nn::save_weights(path, weights);
  // Flip one payload byte.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(4 + 4 + 8 + 10);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(4 + 4 + 8 + 10);
    byte = static_cast<char>(byte ^ 0x5A);
    file.write(&byte, 1);
  }
  EXPECT_THROW(nn::load_weights(path), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongMagic) {
  const std::string path = "/tmp/fedhisyn_serialize_magic.fhsw";
  std::ofstream(path) << "not a weight file at all";
  EXPECT_THROW(nn::load_weights(path), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, ChecksumSensitiveToOrder) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {3.0f, 2.0f, 1.0f};
  EXPECT_NE(nn::fletcher64(a), nn::fletcher64(b));
}

// --------------------------------------------------------------- Momentum --

TEST(Momentum, StepAlgebra) {
  std::vector<float> w = {0.0f};
  std::vector<float> v = {0.0f};
  const std::vector<float> g = {1.0f};
  nn::momentum_sgd_step(w, g, v, /*lr=*/0.1f, /*momentum=*/0.9f);
  EXPECT_FLOAT_EQ(v[0], 1.0f);
  EXPECT_FLOAT_EQ(w[0], -0.1f);
  nn::momentum_sgd_step(w, g, v, 0.1f, 0.9f);
  EXPECT_FLOAT_EQ(v[0], 1.9f);
  EXPECT_NEAR(w[0], -0.29f, 1e-6f);
}

TEST(Momentum, ZeroMomentumMatchesPlainSgdInTrainer) {
  Rng rng(3);
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.n_classes = 3;
  spec.width = 8;
  auto split = data::generate(spec, 60, 30, rng);
  data::Shard shard(&split.train, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const auto net = nn::make_mlp(8, 3, {8});
  Rng wr(5);
  const auto init = net.init_weights(wr);

  auto w1 = init;
  auto w2 = init;
  Rng r1(7);
  Rng r2(7);
  core::train_local(net, w1, shard, 3, 5, 0.1f, core::UpdateKind::kSgd, {}, r1);
  core::UpdateExtras extras;
  extras.momentum = 0.0f;
  core::train_local(net, w2, shard, 3, 5, 0.1f, core::UpdateKind::kSgd, extras, r2);
  EXPECT_EQ(w1, w2);
}

TEST(Momentum, AcceleratesDescentOnQuadraticBowl) {
  // On an easy problem, momentum should reach a lower loss in the same
  // number of steps than plain SGD with the same lr.
  Rng rng(9);
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.n_classes = 2;
  spec.width = 8;
  spec.separation = 3.0;
  auto split = data::generate(spec, 100, 50, rng);
  std::vector<std::int64_t> all(100);
  for (std::int64_t i = 0; i < 100; ++i) all[static_cast<std::size_t>(i)] = i;
  data::Shard shard(&split.train, all);
  const auto net = nn::make_mlp(8, 2, {8});
  Rng wr(11);
  const auto init = net.init_weights(wr);

  auto run = [&](float momentum) {
    auto weights = init;
    Rng r(13);
    core::UpdateExtras extras;
    extras.momentum = momentum;
    const auto outcome = core::train_local(net, weights, shard, 4, 25, 0.02f,
                                           core::UpdateKind::kSgd, extras, r);
    return outcome.mean_loss;
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

// --------------------------------------------------------------- FedAsync --

struct AsyncWorld {
  data::FederatedData fed;
  nn::Network network;
  sim::Fleet fleet;

  AsyncWorld() : network(nn::make_mlp(16, 4, {16})) {
    Rng rng(15);
    data::SyntheticSpec spec;
    spec.name = "t";
    spec.n_classes = 4;
    spec.width = 16;
    spec.separation = 3.0;
    auto split = data::generate(spec, 300, 150, rng);
    fed.train = std::move(split.train);
    fed.test = std::move(split.test);
    data::PartitionConfig pc;
    pc.iid = false;
    pc.beta = 0.3;
    fed.shards = data::make_partition(fed.train, 10, pc, rng);
    fleet.resize(10);
    for (std::size_t i = 0; i < 10; ++i) fleet[i] = {i, 1.0 + 0.4 * i};
  }

  core::FlContext context() const {
    core::FlContext ctx;
    ctx.network = &network;
    ctx.fed = &fed;
    ctx.fleet = &fleet;
    ctx.opts.local_epochs = 2;
    ctx.opts.batch_size = 20;
    return ctx;
  }
};

TEST(FedAsync, BuildableViaFactoryAndConverges) {
  const AsyncWorld world;
  auto algorithm = core::make_algorithm("FedAsync", world.context());
  const float before = algorithm->evaluate_test_accuracy();
  for (int round = 0; round < 6; ++round) algorithm->run_round();
  EXPECT_GT(algorithm->evaluate_test_accuracy(), before + 0.2f);
}

TEST(FedAsync, VersionAdvancesWithUploads) {
  const AsyncWorld world;
  core::FedAsyncAlgo algorithm(world.context());
  algorithm.run_round();
  EXPECT_GT(algorithm.global_version(), 0);
  EXPECT_EQ(static_cast<double>(algorithm.global_version()),
            algorithm.comm().server_uploads());
}

TEST(FedAsync, ZeroExponentMatchesTAFedAvg) {
  // (1+s)^0 == 1, so FedAsync with exponent 0 degenerates to TAFedAvg's
  // constant-alpha mixing.
  const AsyncWorld world;
  core::FedAsyncAlgo fedasync(world.context(), /*staleness_exponent=*/0.0f);
  auto tafedavg = core::make_algorithm("TAFedAvg", world.context());
  for (int round = 0; round < 2; ++round) {
    fedasync.run_round();
    tafedavg->run_round();
  }
  // Same comm pattern (the mixing schedule does not change scheduling).
  EXPECT_DOUBLE_EQ(fedasync.comm().server_uploads(),
                   tafedavg->comm().server_uploads());
}

TEST(FedAsync, NotInTable1Columns) {
  // The paper's Table 1 has exactly seven methods; FedAsync is an extension.
  const auto& methods = core::table1_methods();
  EXPECT_EQ(methods.size(), 7u);
  for (const auto& method : methods) EXPECT_NE(method, "FedAsync");
}

}  // namespace
}  // namespace fedhisyn
