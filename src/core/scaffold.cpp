#include "core/scaffold.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/aggregate.hpp"
#include "tensor/ops.hpp"

namespace fedhisyn::core {

ScaffoldAlgo::ScaffoldAlgo(const FlContext& ctx)
    : FlAlgorithm(ctx),
      c_local_(ctx.device_count(),
               std::vector<float>(static_cast<std::size_t>(ctx.network->param_count()), 0.0f)),
      c_global_(static_cast<std::size_t>(ctx.network->param_count()), 0.0f) {}

void ScaffoldAlgo::run_round() {
  const auto participants = draw_participants();
  const double interval = round_duration();
  const std::size_t param_count = global_.size();

  std::vector<std::vector<float>> locals(participants.size());
  std::vector<std::vector<float>> c_deltas(participants.size());

  // Participants never share a device within one round (drawn without
  // replacement), so the c_local_[device] refresh below is race-free.
  ParallelExecutor::current().parallel_for(participants.size(), [&](std::size_t i) {
    const std::size_t device = participants[i];
    Rng device_rng = job_stream(0x9E3779B9ull, 0x85EBCA6Bull, device, 0);
    locals[i] = global_;

    // SCAFFOLD uses the maximum achievable epochs, like FedAvg in the paper.
    const double epoch_time = (*ctx_.fleet)[device].epoch_time;
    const int epochs = std::max(1, static_cast<int>(std::floor(interval / epoch_time)));

    UpdateExtras extras;
    extras.c_local = c_local_[device];
    extras.c_global = c_global_;
    const auto outcome =
        train_local(*ctx_.network, locals[i], ctx_.fed->shards[device], epochs,
                    ctx_.opts.batch_size, ctx_.opts.lr, UpdateKind::kScaffold, extras,
                    device_rng);

    // Option II refresh: c_i^+ = c_i - c + (w_G - w_i) / (steps * lr).
    c_deltas[i].resize(param_count);
    const float inv = 1.0f / (static_cast<float>(outcome.steps) * ctx_.opts.lr);
    auto& ci = c_local_[device];
    for (std::size_t j = 0; j < param_count; ++j) {
      const float ci_plus = ci[j] - c_global_[j] + (global_[j] - locals[i][j]) * inv;
      c_deltas[i][j] = ci_plus - ci[j];
      ci[j] = ci_plus;
    }
  });

  // Each direction carries model + control variate: 2 units down, 2 up.
  for (std::size_t i = 0; i < participants.size(); ++i) {
    comm_.record_server_download(2.0);
    comm_.record_server_upload(2.0);
  }

  // Server: w_G <- mean of locals (global lr 1); c <- c + (|S|/C) * mean(dc).
  std::vector<std::span<const float>> models;
  models.reserve(participants.size());
  for (const auto& local : locals) models.emplace_back(local);
  aggregate_models(models, uniform_weights(models.size()), global_);

  const double scale = static_cast<double>(participants.size()) /
                       static_cast<double>(ctx_.device_count()) /
                       static_cast<double>(participants.size());
  for (const auto& delta : c_deltas) {
    for (std::size_t j = 0; j < param_count; ++j) {
      c_global_[j] += static_cast<float>(scale) * delta[j];
    }
  }
  ++rounds_completed_;
}

}  // namespace fedhisyn::core
