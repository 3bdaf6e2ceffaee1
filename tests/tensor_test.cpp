// Unit tests for src/tensor: GEMM kernels against a naive reference and an
// order-exact reference (exact float equality — the blocked kernel must
// preserve the per-element reduction order), the kernel-variant equivalence
// matrix (every ISA micro-kernel forced via FEDHISYN_GEMM_KERNEL must
// reproduce the same bits), the trace-span shape classes, softmax/xent
// numerics, im2col/col2im adjointness, elementwise ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace fedhisyn {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

TEST(Tensor, ShapeAndNumel) {
  Tensor t({3, 4, 5});
  EXPECT_EQ(t.numel(), 60);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 4);
  t.reshape({12, 5});
  EXPECT_EQ(t.dim(0), 12);
  EXPECT_THROW(t.reshape({7, 7}), CheckError);
}

TEST(Tensor, RowViewIsContiguousSlice) {
  Tensor t({4, 3});
  for (std::int64_t i = 0; i < 12; ++i) t.at(i) = static_cast<float>(i);
  const auto row2 = t.row(2);
  EXPECT_EQ(row2.size(), 3u);
  EXPECT_FLOAT_EQ(row2[0], 6.0f);
  EXPECT_FLOAT_EQ(row2[2], 8.0f);
  EXPECT_THROW(t.row(4), CheckError);
}

TEST(Tensor, FillAndResize) {
  Tensor t({2, 2});
  t.fill(3.5f);
  EXPECT_FLOAT_EQ(t.at(3), 3.5f);
  t.resize({5});
  EXPECT_EQ(t.numel(), 5);
  EXPECT_FLOAT_EQ(t.at(0), 0.0f);  // resize zeroes
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(100 + m * 7 + k * 3 + n);
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm(a, b, c, m, k, n);
  naive_gemm(a, b, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.0f)) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 7),
                                           std::make_tuple(17, 4, 9),
                                           std::make_tuple(32, 64, 10),
                                           std::make_tuple(64, 8, 128),
                                           std::make_tuple(2, 100, 2)));

TEST(Gemm, BetaAccumulates) {
  Rng rng(3);
  const auto a = random_vec(6, rng);
  const auto b = random_vec(6, rng);
  std::vector<float> c(4, 1.0f);
  gemm(a, b, c, 2, 3, 2, /*beta=*/1.0f);
  std::vector<float> ref(4, 0.0f);
  naive_gemm(a, b, ref, 2, 3, 2);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(c[i], ref[i] + 1.0f, 1e-4f);
}

TEST(Gemm, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  const std::int64_t m = 6;
  const std::int64_t k = 9;
  const std::int64_t n = 4;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);   // m x k
  const auto b = random_vec(static_cast<std::size_t>(n * k), rng);   // n x k
  // gemm_nt: C = A * B^T
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm_nt(a, b, c, m, k, n);
  std::vector<float> bt(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + i] = b[i * k + p];
  }
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  naive_gemm(a, bt, ref, m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  // gemm_tn: C = A2^T * B2 with A2 (k x m), B2 (k x n).
  const auto a2 = random_vec(static_cast<std::size_t>(k * m), rng);
  const auto b2 = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  gemm_tn(a2, b2, c2, m, k, n);
  std::vector<float> a2t(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) a2t[i * k + p] = a2[p * m + i];
  }
  std::vector<float> ref2(static_cast<std::size_t>(m * n));
  naive_gemm(a2t, b2, ref2, m, k, n);
  for (std::size_t i = 0; i < ref2.size(); ++i) EXPECT_NEAR(c2[i], ref2[i], 1e-4f);
}

// --- order-exact references --------------------------------------------------
// Same per-element float arithmetic as the kernels, spelled naively: k terms
// in ascending order; gemm/gemm_tn start from the beta-applied C value,
// gemm_nt accumulates from zero and applies beta at the store.  The blocked,
// simple and parallel paths must all reproduce these bits exactly.

void exact_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::int64_t m, std::int64_t k,
                std::int64_t n, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = beta == 0.0f ? 0.0f
                  : beta == 1.0f ? c[static_cast<std::size_t>(i * n + j)]
                                 : beta * c[static_cast<std::size_t>(i * n + j)];
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(i * k + p)] *
               b[static_cast<std::size_t>(p * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

void exact_gemm_nt(const std::vector<float>& a, const std::vector<float>& b,
                   std::vector<float>& c, std::int64_t m, std::int64_t k,
                   std::int64_t n, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(i * k + p)] *
               b[static_cast<std::size_t>(j * k + p)];
      }
      float& cij = c[static_cast<std::size_t>(i * n + j)];
      cij = (beta == 0.0f ? 0.0f : beta * cij) + acc;
    }
  }
}

void exact_gemm_tn(const std::vector<float>& a, const std::vector<float>& b,
                   std::vector<float>& c, std::int64_t m, std::int64_t k,
                   std::int64_t n, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = beta == 0.0f ? 0.0f
                  : beta == 1.0f ? c[static_cast<std::size_t>(i * n + j)]
                                 : beta * c[static_cast<std::size_t>(i * n + j)];
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(p * m + i)] *
               b[static_cast<std::size_t>(p * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

// Run all three kernel variants on one shape and demand exact float equality
// with the order-exact references.  C starts from the same random contents on
// both sides so beta accumulation is exercised for real.
void expect_all_variants_exact(std::int64_t m, std::int64_t k, std::int64_t n,
                               float beta, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta);
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m * n), rng);
  const auto a_t = random_vec(static_cast<std::size_t>(k * m), rng);   // (k x m)
  const auto b_t = random_vec(static_cast<std::size_t>(n * k), rng);   // (n x k)

  auto c = c0;
  auto ref = c0;
  gemm(a, b, c, m, k, n, beta);
  exact_gemm(a, b, ref, m, k, n, beta);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "gemm at " << i;
  }

  c = c0;
  ref = c0;
  gemm_nt(a, b_t, c, m, k, n, beta);
  exact_gemm_nt(a, b_t, ref, m, k, n, beta);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "gemm_nt at " << i;
  }

  c = c0;
  ref = c0;
  gemm_tn(a_t, b, c, m, k, n, beta);
  exact_gemm_tn(a_t, b, ref, m, k, n, beta);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "gemm_tn at " << i;
  }
}

// Adversarial shapes for the blocked kernel: degenerate m/n/k of 1, sizes
// straddling register tiles (up to 8x16), the row-strip, and the column
// panel (512, via n = 520), plus a flop count large enough to cross the
// simple-path cutoff and dispatch the pool.  Shared between the
// parameterised suite (default kernel) and the kernel-variant matrix below.
const std::tuple<int, int, int> kGemmEdgeShapes[] = {
    {1, 1, 1},   {1, 300, 1},  {1, 37, 300},  {300, 37, 1},
    {3, 5, 7},   {4, 64, 8},   {5, 64, 9},    {7, 129, 15},
    {9, 33, 130}, {33, 70, 520}, {64, 256, 96},
};

class GemmExactShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmExactShapes, AllVariantsAllBetasMatchOrderExactReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(4000 + m * 131 + k * 17 + n);
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    expect_all_variants_exact(m, k, n, beta, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeShapes, GemmExactShapes,
                         ::testing::ValuesIn(kGemmEdgeShapes));

// --- kernel-variant equivalence ----------------------------------------------

/// RAII wrapper around the documented test-only reinit hook
/// (gemm_runtime_reinit, see docs/ARCHITECTURE.md): point FEDHISYN_GEMM_KERNEL
/// somewhere, re-resolve the runtime selection, restore both on exit.
class ScopedGemmEnv {
 public:
  ScopedGemmEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, /*overwrite=*/1);
    }
    gemm_runtime_reinit();
  }
  ~ScopedGemmEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_.c_str());
    }
    // Restores run innermost-first, so by the time the outermost scope
    // unwinds the environment is valid again; swallow nothing silently.
    gemm_runtime_reinit();
  }
  ScopedGemmEnv(const ScopedGemmEnv&) = delete;
  ScopedGemmEnv& operator=(const ScopedGemmEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

// Every variant this CPU runs, forced via the env knob, must reproduce the
// order-exact reference bits with its register tile on every edge shape,
// every beta, all three ops.  The references are the same anchor the
// default-kernel suite uses, so this is transitively exact equality across
// all variants.
TEST(GemmKernelMatrix, AllCatalogEntriesBitIdenticalToOrderExactReference) {
  const auto variants = gemm_supported_variants();
  ASSERT_FALSE(variants.empty());
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    ScopedGemmEnv forced("FEDHISYN_GEMM_KERNEL", variant.c_str());
    EXPECT_EQ(gemm_runtime_info().variant, variant);
    for (const auto& shape : kGemmEdgeShapes) {
      const auto [m, k, n] = shape;
      Rng rng(4000 + m * 131 + k * 17 + n);
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        expect_all_variants_exact(m, k, n, beta, rng);
      }
    }
  }
}

TEST(GemmKernelMatrix, ForcedBadOrUnsupportedVariantFailsLoudly) {
  const char* old = std::getenv("FEDHISYN_GEMM_KERNEL");
  const std::string saved = old != nullptr ? old : "";
  const bool had_old = old != nullptr;

  // Unknown variant name.
  setenv("FEDHISYN_GEMM_KERNEL", "bogus", /*overwrite=*/1);
  EXPECT_THROW(gemm_runtime_reinit(), CheckError);
  // Each variant has one register tile, so any ":MRxNR" suffix is an
  // unknown name — even the variant's real tile.
  for (const char* spec : {"generic:9x9", "generic:4x8"}) {
    setenv("FEDHISYN_GEMM_KERNEL", spec, /*overwrite=*/1);
    EXPECT_THROW(gemm_runtime_reinit(), CheckError) << spec;
  }
  // A real variant this CPU cannot run (neon on x86, avx2 on aarch64 — one
  // of the three always qualifies).
  const auto supported = gemm_supported_variants();
  for (const std::string candidate : {"avx2", "avx512", "neon"}) {
    if (std::find(supported.begin(), supported.end(), candidate) !=
        supported.end()) {
      continue;
    }
    setenv("FEDHISYN_GEMM_KERNEL", candidate.c_str(), /*overwrite=*/1);
    EXPECT_THROW(gemm_runtime_reinit(), CheckError);
    break;
  }

  // A failed reinit leaves the previous (valid) selection intact.
  if (had_old) {
    setenv("FEDHISYN_GEMM_KERNEL", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("FEDHISYN_GEMM_KERNEL");
  }
  gemm_runtime_reinit();
  Rng rng(11);
  const auto a = random_vec(4 * 6, rng);
  const auto b = random_vec(6 * 5, rng);
  std::vector<float> c(4 * 5);
  gemm(a, b, c, 4, 6, 5);  // must not throw
}

TEST(GemmTuneCache, ShapeClassMapping) {
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNN, kGemmWideN), "nn/narrow");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNN, kGemmWideN + 1), "nn/wide");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kNT, 64), "nt/narrow");
  EXPECT_EQ(gemm_shape_class(gemmk::GemmOp::kTN, 1024), "tn/wide");
}

TEST(GemmExact, ExactZeroOperandsTakeNoShortcut) {
  // The old kernel skipped k terms where a == 0.0f; the blocked kernel must
  // not (data-dependent timing, and +-0 terms still participate in rounding).
  // ReLU-style inputs: half the A entries exactly zero, B signed.
  Rng rng(99);
  const std::int64_t m = 19;
  const std::int64_t k = 83;
  const std::int64_t n = 41;
  auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm(a, b, c, m, k, n);
  exact_gemm(a, b, ref, m, k, n, 0.0f);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(c[i], ref[i]) << i;
}

TEST(GemmExact, BitIdenticalAcrossThreadCounts) {
  // Serial pool vs 8-thread pool on a shape big enough to fan out over 2-D
  // tiles: the k-reduction order is fixed, so the bytes must match exactly.
  Rng rng(123);
  const std::int64_t m = 45;
  const std::int64_t k = 300;
  const std::int64_t n = 530;  // two column panels, edge in both dimensions
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  const auto b_t = random_vec(static_cast<std::size_t>(n * k), rng);
  const auto a_t = random_vec(static_cast<std::size_t>(k * m), rng);
  std::vector<float> serial(static_cast<std::size_t>(m * n));
  std::vector<float> pooled(static_cast<std::size_t>(m * n));

  ParallelExecutor pool1(1);
  ParallelExecutor pool8(8);
  const auto run_all = [&](ParallelExecutor& pool, std::vector<float>& c) {
    ParallelExecutor::Bind bind(pool);
    gemm(a, b, c, m, k, n);
    gemm_nt(a, b_t, c, m, k, n, /*beta=*/1.0f);
    gemm_tn(a_t, b, c, m, k, n, /*beta=*/0.5f);
  };
  run_all(pool1, serial);
  run_all(pool8, pooled);
  ASSERT_EQ(0, std::memcmp(serial.data(), pooled.data(),
                           serial.size() * sizeof(float)));
}

TEST(Ops, AxpyScaleCopyDot) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> y = {10.0f, 20.0f, 30.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  scale(0.5f, y);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  std::vector<float> z(3);
  copy(x, z);
  EXPECT_FLOAT_EQ(z[1], 2.0f);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_NEAR(norm(x), std::sqrt(14.0), 1e-9);
}

TEST(Ops, ArgmaxFirstOnTies) {
  std::vector<float> v = {1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1);
}

TEST(Ops, SoftmaxRowsNormalises) {
  std::vector<float> logits = {1.0f, 2.0f, 3.0f, 1000.0f, 1000.0f, 1000.0f};
  softmax_rows(logits, 2, 3);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-5f);
  // Huge logits must not overflow (stability).
  EXPECT_NEAR(logits[3], 1.0f / 3.0f, 1e-5f);
}

TEST(Ops, XentLossMatchesHandComputation) {
  // Two rows, 2 classes, logits chosen so softmax is analytic.
  std::vector<float> logits = {0.0f, 0.0f, 1.0f, 0.0f};
  std::vector<std::int32_t> labels = {0, 1};
  const float loss = softmax_xent_rows(logits, labels, 2, 2, {});
  // Row 0: -log(0.5); Row 1: -log(sigmoid(-1)) = log(1 + e^1).
  const double expected = 0.5 * (std::log(2.0) + std::log(1.0 + std::exp(1.0)));
  EXPECT_NEAR(loss, expected, 1e-5);
}

TEST(Ops, XentGradientMatchesFiniteDifference) {
  Rng rng(9);
  const std::int64_t rows = 4;
  const std::int64_t cols = 5;
  auto logits = random_vec(static_cast<std::size_t>(rows * cols), rng);
  std::vector<std::int32_t> labels = {0, 3, 2, 4};
  std::vector<float> grad(logits.size());
  softmax_xent_rows(logits, labels, rows, cols, grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto plus = logits;
    auto minus = logits;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = softmax_xent_rows(plus, labels, rows, cols, {});
    const float lm = softmax_xent_rows(minus, labels, rows, cols, {});
    const float fd = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, 5e-3f) << "logit " << i;
  }
}

TEST(Ops, XentRejectsOutOfRangeLabel) {
  std::vector<float> logits = {0.0f, 0.0f};
  std::vector<std::int32_t> bad = {5};
  EXPECT_THROW(softmax_xent_rows(logits, bad, 1, 2, {}), CheckError);
}

TEST(Ops, WeightedSumConvexCombination) {
  std::vector<float> a = {1.0f, 1.0f};
  std::vector<float> b = {3.0f, 5.0f};
  std::vector<std::span<const float>> inputs = {a, b};
  std::vector<double> weights = {0.25, 0.75};
  std::vector<float> out(2);
  weighted_sum(inputs, weights, out);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no padding: columns == image.
  ConvGeometry g;
  g.channels = 2;
  g.height = 3;
  g.width = 3;
  g.kernel = 1;
  Rng rng(21);
  const auto image = random_vec(18, rng);
  std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(image, g, columns);
  for (std::size_t i = 0; i < image.size(); ++i) EXPECT_FLOAT_EQ(columns[i], image[i]);
}

TEST(Im2col, PaddingProducesZeroBorder) {
  ConvGeometry g;
  g.channels = 1;
  g.height = 2;
  g.width = 2;
  g.kernel = 3;
  g.padding = 1;
  std::vector<float> image = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> columns(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(image, g, columns);
  // Output is 2x2; kernel position (0,0) for output (0,0) hits padding.
  EXPECT_FLOAT_EQ(columns[0], 0.0f);
  // Kernel centre (1,1) row: should reproduce the image.
  const std::int64_t centre_row = (1 * 3 + 1) * g.col_cols();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(columns[static_cast<std::size_t>(centre_row + i)], image[static_cast<std::size_t>(i)]);
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the convolution backward pass correct.
  ConvGeometry g;
  g.channels = 2;
  g.height = 5;
  g.width = 4;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  Rng rng(33);
  const auto x = random_vec(static_cast<std::size_t>(g.channels * g.height * g.width), rng);
  const auto y = random_vec(static_cast<std::size_t>(g.col_rows() * g.col_cols()), rng);
  std::vector<float> cols(y.size());
  im2col(x, g, cols);
  std::vector<float> xt(x.size(), 0.0f);
  col2im(y, g, xt);
  const double lhs = dot(cols, y);
  const double rhs = dot(x, xt);
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

}  // namespace
}  // namespace fedhisyn
