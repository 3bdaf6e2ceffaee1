// Unit tests for src/nn: finite-difference gradient checks for every layer
// type through full networks, update-rule algebra, model factories, and
// training sanity (loss decreases on a learnable problem).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/update.hpp"

namespace fedhisyn::nn {
namespace {

/// Build a batch of random inputs + labels for a network.
struct Problem {
  Tensor x;
  std::vector<std::int32_t> y;
};

Problem make_problem(const Network& net, std::int64_t batch, Rng& rng) {
  Problem p;
  const auto in = net.input_shape();
  if (in.h > 1 || in.c > 1) {
    p.x.resize({batch, in.c, in.h, in.w});
  } else {
    p.x.resize({batch, in.numel()});
  }
  for (std::int64_t i = 0; i < p.x.numel(); ++i) {
    p.x.at(i) = static_cast<float>(rng.normal());
  }
  p.y.resize(static_cast<std::size_t>(batch));
  for (auto& label : p.y) {
    label = static_cast<std::int32_t>(rng.uniform_index(
        static_cast<std::uint64_t>(net.n_classes())));
  }
  return p;
}

/// Central-difference check of d(loss)/d(weights) on a random subset of
/// coordinates (full sweeps are too slow for conv nets).
///
/// ReLU and max-pool make the loss piecewise smooth; a coordinate whose
/// +/-eps probes straddle a kink gives a meaningless finite difference.  We
/// detect those points by comparing two step sizes (eps and eps/2): where
/// the two estimates disagree, the point is nonsmooth and skipped.  A
/// genuinely wrong backward pass fails consistently at smooth points, so the
/// test retains full bug-catching power.
void gradient_check(const Network& net, std::int64_t batch, std::uint64_t seed,
                    int n_coords = 60, float tol = 2e-2f) {
  Rng rng(seed);
  auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, batch, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  net.loss_and_grad(weights, p.x, p.y, grad, ws);

  auto fd_at = [&](std::size_t i, float eps) {
    const float saved = weights[i];
    weights[i] = saved + eps;
    const float lp = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved - eps;
    const float lm = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved;
    return (lp - lm) / (2.0f * eps);
  };

  int checked = 0;
  for (int t = 0; t < n_coords; ++t) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(weights.size()));
    const float fd1 = fd_at(i, 4e-3f);
    const float fd2 = fd_at(i, 1e-3f);
    if (std::abs(fd1 - fd2) > 0.015f * (std::abs(fd1) + std::abs(fd2)) + 5e-4f) {
      continue;  // nonsmooth point (activation kink under the probe)
    }
    ++checked;
    EXPECT_NEAR(grad[i], fd2, tol * (std::abs(fd2) + 1.0f))
        << "coordinate " << i << " of " << weights.size();
  }
  // The filter must not silently skip everything.
  EXPECT_GE(checked, n_coords / 2);
}

TEST(Network, FinalizeValidatesHead) {
  Network net({8, 1, 1}, 4);
  net.add_dense(16).add_relu().add_dense(5);  // wrong head size
  EXPECT_THROW(net.finalize(), CheckError);
}

TEST(Network, RequiresFinalizeBeforeUse) {
  Network net({8, 1, 1}, 4);
  net.add_dense(4);
  EXPECT_THROW(net.param_count(), CheckError);
}

TEST(Network, ParamCountMatchesArchitecture) {
  Network net({10, 1, 1}, 3);
  net.add_dense(7).add_relu().add_dense(3);
  net.finalize();
  EXPECT_EQ(net.param_count(), 10 * 7 + 7 + 7 * 3 + 3);
}

TEST(Network, InitWeightsDeterministic) {
  const auto net = make_mlp(12, 4, {8});
  Rng a(5);
  Rng b(5);
  const auto w1 = net.init_weights(a);
  const auto w2 = net.init_weights(b);
  EXPECT_EQ(w1, w2);
}

TEST(Network, DenseGradientMatchesFiniteDifference) {
  const auto net = make_mlp(6, 3, {10});
  gradient_check(net, /*batch=*/5, /*seed=*/71);
}

TEST(Network, DeepMlpGradientMatchesFiniteDifference) {
  const auto net = make_mlp(8, 4, {16, 12, 8});
  gradient_check(net, /*batch=*/7, /*seed=*/73);
}

TEST(Network, SmoothConvGradientIsExact) {
  // conv -> flatten -> dense -> softmax has no kinks: the loss is smooth in
  // the weights, so central differences must match tightly everywhere.
  Network net({2, 6, 6}, 3);
  net.add_conv2d(3, 3, 1, 1).add_flatten().add_dense(3);
  net.finalize();
  Rng rng(101);
  auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 4, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  net.loss_and_grad(weights, p.x, p.y, grad, ws);
  const float eps = 1e-2f;
  for (int t = 0; t < 80; ++t) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(weights.size()));
    const float saved = weights[i];
    weights[i] = saved + eps;
    const float lp = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved - eps;
    const float lm = net.loss(weights, p.x, p.y, ws);
    weights[i] = saved;
    const float fd = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, 5e-3f * (std::abs(fd) + 1.0f)) << "coordinate " << i;
  }
}

TEST(Network, MaxPoolForwardBackwardHandComputed) {
  // Single 4x4 plane with known maxima; verify forward values and that the
  // backward routes each gradient to the argmax cell.
  MaxPool2 pool;
  const Shape3 in{1, 4, 4};
  Tensor x({1, 1, 4, 4});
  const float values[16] = {1, 2, 0, 0,   //
                            3, 4, 0, 5,   //
                            0, 0, 9, 8,   //
                            0, 7, 6, 0};
  for (int i = 0; i < 16; ++i) x.at(i) = values[i];
  Tensor y;
  pool.forward(in, {}, x, y);
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1), 5.0f);
  EXPECT_FLOAT_EQ(y.at(2), 7.0f);
  EXPECT_FLOAT_EQ(y.at(3), 9.0f);

  Tensor grad_out({1, 1, 2, 2});
  for (int i = 0; i < 4; ++i) grad_out.at(i) = static_cast<float>(i + 1);
  Tensor grad_in;
  pool.backward(in, {}, x, grad_out, grad_in, {});
  EXPECT_FLOAT_EQ(grad_in.at(5), 1.0f);   // 4 at (1,1)
  EXPECT_FLOAT_EQ(grad_in.at(7), 2.0f);   // 5 at (1,3)
  EXPECT_FLOAT_EQ(grad_in.at(13), 3.0f);  // 7 at (3,1)
  EXPECT_FLOAT_EQ(grad_in.at(10), 4.0f);  // 9 at (2,2)
  // Everything else zero.
  double total = 0.0;
  for (int i = 0; i < 16; ++i) total += grad_in.at(i);
  EXPECT_DOUBLE_EQ(total, 10.0);
}

TEST(Network, ConvPoolGradientMatchesFiniteDifference) {
  Network net({2, 8, 8}, 3);
  net.add_conv2d(4, 3, 1, 1).add_relu().add_maxpool2().add_flatten().add_dense(3);
  net.finalize();
  gradient_check(net, /*batch=*/3, /*seed=*/79, /*n_coords=*/40);
}

TEST(Network, PaperCnnGradientMatchesFiniteDifference) {
  const auto net = make_cnn({3, 8, 8}, 5, /*conv1=*/4, /*conv2=*/6, /*fc1=*/20,
                            /*fc2=*/12);
  gradient_check(net, /*batch=*/2, /*seed=*/83, /*n_coords=*/30);
}

TEST(Network, LossDecreasesUnderSgd) {
  // Tiny separable problem: the loss should drop substantially in 50 steps.
  const auto net = make_mlp(4, 2, {16});
  Rng rng(91);
  auto weights = net.init_weights(rng);
  Tensor x({20, 4});
  std::vector<std::int32_t> y(20);
  for (int i = 0; i < 20; ++i) {
    const int label = i % 2;
    y[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 4; ++d) {
      x.at(i * 4 + d) = static_cast<float>(rng.normal()) +
                        (label == 0 ? 2.0f : -2.0f);
    }
  }
  Workspace ws;
  std::vector<float> grad(weights.size());
  const float initial = net.loss_and_grad(weights, x, y, grad, ws);
  for (int step = 0; step < 50; ++step) {
    net.loss_and_grad(weights, x, y, grad, ws);
    sgd_step(weights, grad, 0.1f);
  }
  const float final_loss = net.loss(weights, x, y, ws);
  EXPECT_LT(final_loss, 0.5f * initial);
}

TEST(Network, AccuracyPerfectOnMemorisedData) {
  const auto net = make_mlp(4, 2, {16});
  Rng rng(93);
  auto weights = net.init_weights(rng);
  Tensor x({16, 4});
  std::vector<std::int32_t> y(16);
  for (int i = 0; i < 16; ++i) {
    const int label = i % 2;
    y[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 4; ++d) {
      x.at(i * 4 + d) = (label == 0 ? 3.0f : -3.0f) + 0.1f * static_cast<float>(rng.normal());
    }
  }
  Workspace ws;
  std::vector<float> grad(weights.size());
  for (int step = 0; step < 100; ++step) {
    net.loss_and_grad(weights, x, y, grad, ws);
    sgd_step(weights, grad, 0.2f);
  }
  EXPECT_GT(net.accuracy(weights, x, y, /*batch=*/5), 0.95f);
}

TEST(Network, LossMatchesLossAndGradValue) {
  // The forward-only loss and the loss returned alongside the gradient must
  // be identical (they share one code path through softmax_xent_rows).
  const auto net = make_mlp(10, 4, {12});
  Rng rng(95);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 9, rng);
  Workspace ws;
  std::vector<float> grad(weights.size());
  const float with_grad = net.loss_and_grad(weights, p.x, p.y, grad, ws);
  const float without = net.loss(weights, p.x, p.y, ws);
  EXPECT_FLOAT_EQ(with_grad, without);
}

TEST(Network, AccuracyChunkingInvariant) {
  // Accuracy must not depend on the evaluation batch size.
  const auto net = make_mlp(6, 3, {8});
  Rng rng(97);
  const auto weights = net.init_weights(rng);
  const Problem p = make_problem(net, 23, rng);
  const float a1 = net.accuracy(weights, p.x, p.y, 1);
  const float a7 = net.accuracy(weights, p.x, p.y, 7);
  const float a23 = net.accuracy(weights, p.x, p.y, 23);
  const float a100 = net.accuracy(weights, p.x, p.y, 100);
  EXPECT_FLOAT_EQ(a1, a7);
  EXPECT_FLOAT_EQ(a7, a23);
  EXPECT_FLOAT_EQ(a23, a100);
}

TEST(Update, SgdStepAlgebra) {
  std::vector<float> w = {1.0f, 2.0f};
  std::vector<float> g = {0.5f, -1.0f};
  sgd_step(w, g, 0.1f);
  EXPECT_FLOAT_EQ(w[0], 0.95f);
  EXPECT_FLOAT_EQ(w[1], 2.1f);
}

TEST(Update, ProxStepPullsTowardAnchor) {
  std::vector<float> w = {2.0f};
  const std::vector<float> g = {0.0f};
  const std::vector<float> anchor = {0.0f};
  prox_sgd_step(w, g, anchor, /*lr=*/0.5f, /*mu=*/1.0f);
  // w -= 0.5 * (0 + 1*(2-0)) = 1.0
  EXPECT_FLOAT_EQ(w[0], 1.0f);
}

TEST(Update, ScaffoldCorrectionApplied) {
  std::vector<float> w = {0.0f};
  const std::vector<float> g = {1.0f};
  const std::vector<float> ci = {0.4f};
  const std::vector<float> c = {0.1f};
  scaffold_step(w, g, ci, c, /*lr=*/1.0f);
  // w -= 1 * (1 - 0.4 + 0.1) = -0.7
  EXPECT_FLOAT_EQ(w[0], -0.7f);
}

TEST(Update, SizeMismatchRejected) {
  std::vector<float> w = {0.0f, 1.0f};
  const std::vector<float> g = {1.0f};
  EXPECT_THROW(sgd_step(w, g, 0.1f), fedhisyn::CheckError);
}

TEST(Models, ConvGeometryPropagation) {
  // 5x5 kernel with padding 2 preserves spatial dims; each maxpool halves.
  Conv2d conv(8, 5, 1, 2);
  const Shape3 in{3, 8, 8};
  const auto after_conv = conv.output_shape(in);
  EXPECT_EQ(after_conv.c, 8);
  EXPECT_EQ(after_conv.h, 8);
  EXPECT_EQ(after_conv.w, 8);
  MaxPool2 pool;
  const auto after_pool = pool.output_shape(after_conv);
  EXPECT_EQ(after_pool.h, 4);
  EXPECT_EQ(after_pool.w, 4);

  // Strided conv without padding shrinks: (8 - 3)/2 + 1 = 3.
  Conv2d strided(4, 3, 2, 0);
  const auto shrunk = strided.output_shape(in);
  EXPECT_EQ(shrunk.h, 3);
  EXPECT_EQ(shrunk.w, 3);
}

TEST(Models, ConvParamCountMatchesFormula) {
  Conv2d conv(16, 5, 1, 2);
  const Shape3 in{3, 8, 8};
  EXPECT_EQ(conv.param_count(in), 16 * 3 * 5 * 5 + 16);
}

TEST(Models, MlpShapesMatchPaper) {
  const auto net = make_mlp(64, 10);
  // 64->200->100->10 with biases.
  EXPECT_EQ(net.param_count(), 64 * 200 + 200 + 200 * 100 + 100 + 100 * 10 + 10);
  EXPECT_EQ(net.n_classes(), 10);
}

TEST(Models, CnnBuildsAndEmitsClassLogits) {
  const auto net = make_cnn({3, 8, 8}, 10);
  Rng rng(99);
  const auto weights = net.init_weights(rng);
  Tensor x({2, 3, 8, 8});
  Workspace ws;
  net.forward(weights, x, ws);
  EXPECT_EQ(ws.activations.back().dim(0), 2);
  EXPECT_EQ(ws.activations.back().dim(1), 10);
}

TEST(Models, CnnRejectsTinyInput) {
  EXPECT_THROW(make_cnn({3, 4, 4}, 10), fedhisyn::CheckError);
}

}  // namespace
}  // namespace fedhisyn::nn
