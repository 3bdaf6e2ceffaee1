#include "nn/network.hpp"

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::nn {

Network::Network(Shape3 input_shape, std::int64_t n_classes)
    : input_shape_(input_shape), n_classes_(n_classes) {
  FEDHISYN_CHECK(input_shape.numel() > 0);
  FEDHISYN_CHECK(n_classes >= 2);
}

Network& Network::add_dense(std::int64_t units) {
  FEDHISYN_CHECK(!finalized_);
  layers_.push_back(std::make_unique<Dense>(units));
  return *this;
}

Network& Network::add_relu() {
  FEDHISYN_CHECK(!finalized_);
  layers_.push_back(std::make_unique<Relu>());
  return *this;
}

Network& Network::add_conv2d(std::int64_t out_channels, std::int64_t kernel,
                             std::int64_t stride, std::int64_t padding) {
  FEDHISYN_CHECK(!finalized_);
  layers_.push_back(std::make_unique<Conv2d>(out_channels, kernel, stride, padding));
  return *this;
}

Network& Network::add_maxpool2() {
  FEDHISYN_CHECK(!finalized_);
  layers_.push_back(std::make_unique<MaxPool2>());
  return *this;
}

Network& Network::add_flatten() {
  FEDHISYN_CHECK(!finalized_);
  layers_.push_back(std::make_unique<Flatten>());
  return *this;
}

void Network::finalize() {
  FEDHISYN_CHECK(!finalized_);
  FEDHISYN_CHECK_MSG(!layers_.empty(), "network has no layers");
  in_shapes_.clear();
  offsets_.clear();
  Shape3 shape = input_shape_;
  std::int64_t offset = 0;
  for (const auto& layer : layers_) {
    in_shapes_.push_back(shape);
    offsets_.push_back(offset);
    offset += layer->param_count(shape);
    shape = layer->output_shape(shape);
  }
  FEDHISYN_CHECK_MSG(shape.numel() == n_classes_,
                     "final layer emits " << shape.numel() << " values, expected "
                                          << n_classes_ << " logits");
  param_count_ = offset;
  finalized_ = true;
}

void Network::check_finalized() const {
  FEDHISYN_CHECK_MSG(finalized_, "call finalize() before using the network");
}

std::int64_t Network::param_count() const {
  check_finalized();
  return param_count_;
}

std::span<const float> Network::layer_params(std::span<const float> weights,
                                             std::size_t i) const {
  const std::int64_t count = layers_[i]->param_count(in_shapes_[i]);
  return weights.subspan(static_cast<std::size_t>(offsets_[i]),
                         static_cast<std::size_t>(count));
}

std::vector<float> Network::init_weights(Rng& rng) const {
  check_finalized();
  std::vector<float> weights(static_cast<std::size_t>(param_count_));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::int64_t count = layers_[i]->param_count(in_shapes_[i]);
    layers_[i]->init_params(in_shapes_[i],
                            std::span<float>(weights.data() + offsets_[i],
                                             static_cast<std::size_t>(count)),
                            rng);
  }
  return weights;
}

void Network::forward(std::span<const float> weights, const Tensor& x, Workspace& ws) const {
  check_finalized();
  FEDHISYN_CHECK(static_cast<std::int64_t>(weights.size()) == param_count_);
  FEDHISYN_CHECK(x.rank() >= 2);
  FEDHISYN_CHECK_MSG(x.numel() == x.dim(0) * input_shape_.numel(),
                     "input " << x.shape_str() << " does not match model input");
  ws.activations.resize(layers_.size());
  const Tensor* current = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(in_shapes_[i], layer_params(weights, i), *current,
                        ws.activations[i]);
    current = &ws.activations[i];
  }
}

float Network::loss(std::span<const float> weights, const Tensor& x,
                    std::span<const std::int32_t> labels, Workspace& ws) const {
  forward(weights, x, ws);
  const Tensor& logits = ws.activations.back();
  const std::int64_t batch = x.dim(0);
  return softmax_xent_rows(logits.span(), labels, batch, n_classes_, {});
}

float Network::loss_and_grad(std::span<const float> weights, const Tensor& x,
                             std::span<const std::int32_t> labels, std::span<float> grad,
                             Workspace& ws) const {
  check_finalized();
  FEDHISYN_CHECK(static_cast<std::int64_t>(grad.size()) == param_count_);
  forward(weights, x, ws);
  fill(grad, 0.0f);

  const Tensor& logits = ws.activations.back();
  const std::int64_t batch = x.dim(0);
  ws.logit_grad.resize(logits.shape());
  const float loss_value =
      softmax_xent_rows(logits.span(), labels, batch, n_classes_, ws.logit_grad.span());

  ws.gradients.resize(layers_.size());
  const Tensor* grad_out = &ws.logit_grad;
  for (std::size_t idx = layers_.size(); idx-- > 0;) {
    const Tensor& layer_in = idx == 0 ? x : ws.activations[idx - 1];
    const std::int64_t count = layers_[idx]->param_count(in_shapes_[idx]);
    auto grad_slice = std::span<float>(grad.data() + offsets_[idx],
                                       static_cast<std::size_t>(count));
    layers_[idx]->backward(in_shapes_[idx], layer_params(weights, idx), layer_in, *grad_out,
                           ws.gradients[idx], grad_slice);
    grad_out = &ws.gradients[idx];
  }
  return loss_value;
}

float Network::accuracy(std::span<const float> weights, const Tensor& x,
                        std::span<const std::int32_t> labels, std::int64_t batch) const {
  check_finalized();
  const std::int64_t n = x.dim(0);
  FEDHISYN_CHECK(static_cast<std::int64_t>(labels.size()) == n);
  FEDHISYN_CHECK(batch > 0);
  const std::int64_t sample_size = input_shape_.numel();
  // Shard the evaluation over the pool, one chunk of `batch` rows per index.
  // Chunk boundaries are fixed by `batch` alone (never by the thread count)
  // and per-chunk correct counts are integers summed in index order, so the
  // result is bit-identical for any pool size.  Each thread evaluates in its
  // own thread-local buffers; resize() and forward() overwrite all they read.
  const std::size_t n_chunks = static_cast<std::size_t>((n + batch - 1) / batch);
  std::vector<std::int64_t> correct(n_chunks, 0);
  ParallelExecutor::current().parallel_for(n_chunks, [&](std::size_t ci) {
    thread_local Workspace ws;
    thread_local Tensor chunk;
    const std::int64_t start = static_cast<std::int64_t>(ci) * batch;
    const std::int64_t rows = std::min(batch, n - start);
    chunk.resize({rows, sample_size});
    for (std::int64_t r = 0; r < rows; ++r) {
      copy(x.row(start + r), chunk.row(r));
    }
    forward(weights, chunk, ws);
    const Tensor& logits = ws.activations.back();
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t pred = argmax(logits.row(r));
      if (pred == labels[static_cast<std::size_t>(start + r)]) ++correct[ci];
    }
  });
  std::int64_t total = 0;
  for (const std::int64_t c : correct) total += c;
  return static_cast<float>(total) / static_cast<float>(n);
}

}  // namespace fedhisyn::nn
