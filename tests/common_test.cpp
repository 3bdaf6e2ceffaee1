// Unit tests for src/common: RNG determinism and distribution sanity,
// check macros, table rendering, env parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace fedhisyn {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_index(10))];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 1700);
    EXPECT_LT(c, 2300);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(17);
  for (const double shape : {0.5, 1.0, 2.0, 8.0}) {
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / kN, shape, 0.12 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(19);
  for (const double alpha : {0.1, 0.3, 0.8, 5.0}) {
    const auto p = rng.dirichlet(alpha, 10);
    const double total = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9) << "alpha=" << alpha;
    for (const double v : p) EXPECT_GE(v, 0.0);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  // alpha -> 0 concentrates mass on few categories; alpha -> inf flattens.
  Rng rng(23);
  double max_small = 0.0;
  double max_large = 0.0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const auto skewed = rng.dirichlet(0.05, 10);
    const auto flat = rng.dirichlet(50.0, 10);
    max_small += *std::max_element(skewed.begin(), skewed.end());
    max_large += *std::max_element(flat.begin(), flat.end());
  }
  EXPECT_GT(max_small / kTrials, 0.7);
  EXPECT_LT(max_large / kTrials, 0.25);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  rng.shuffle(values);
  std::set<int> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(37);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(41);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(FEDHISYN_CHECK(false), CheckError);
  try {
    FEDHISYN_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(FEDHISYN_CHECK(true));
  EXPECT_NO_THROW(FEDHISYN_CHECK_MSG(true, "never"));
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
}

TEST(Table, RendersAlignedAscii) {
  Table table({"method", "acc"});
  table.add_row({"FedHiSyn", "81.64%"});
  table.add_row({"FedAvg", "77.09%"});
  const auto ascii = table.to_ascii();
  EXPECT_NE(ascii.find("FedHiSyn"), std::string::npos);
  EXPECT_NE(ascii.find("| method"), std::string::npos);
  // Header separator present.
  EXPECT_NE(ascii.find("|--"), std::string::npos);
}

TEST(Table, CsvRoundTripsCells) {
  Table table({"x", "y"});
  table.add_row({"1", "2"});
  EXPECT_EQ(table.to_csv(), "x,y\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt_pct(0.81643), "81.64%");
  EXPECT_EQ(Table::fmt_f(3.14159, 3), "3.142");
  EXPECT_EQ(Table::fmt_i(42), "42");
}

TEST(Table, MaybeWriteCsvHonoursEnv) {
  Table table({"a"});
  table.add_row({"1"});
  ::unsetenv("FEDHISYN_CSV_DIR");
  EXPECT_FALSE(table.maybe_write_csv("unset_case"));
  ::setenv("FEDHISYN_CSV_DIR", "/tmp", 1);
  EXPECT_TRUE(table.maybe_write_csv("fedhisyn_csv_test"));
  std::ifstream in("/tmp/fedhisyn_csv_test.csv");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  ::unsetenv("FEDHISYN_CSV_DIR");
  std::remove("/tmp/fedhisyn_csv_test.csv");
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("FEDHISYN_TEST_KNOB");
  EXPECT_EQ(env_long("FEDHISYN_TEST_KNOB", 7), 7);
  ::setenv("FEDHISYN_TEST_KNOB", "123", 1);
  EXPECT_EQ(env_long("FEDHISYN_TEST_KNOB", 7), 123);
  ::setenv("FEDHISYN_TEST_KNOB", "garbage", 1);
  EXPECT_THROW(env_long("FEDHISYN_TEST_KNOB", 7), CheckError);
  ::setenv("FEDHISYN_TEST_KNOB", "4x", 1);  // no silent prefix parse
  EXPECT_THROW(env_long("FEDHISYN_TEST_KNOB", 7), CheckError);
  ::setenv("FEDHISYN_TEST_KNOB", "", 1);  // empty counts as unset
  EXPECT_EQ(env_long("FEDHISYN_TEST_KNOB", 7), 7);
  ::unsetenv("FEDHISYN_TEST_KNOB");
}

}  // namespace
}  // namespace fedhisyn
