// Local (on-device) training: mini-batch SGD with the plain, proximal
// (FedProx) and control-variate (SCAFFOLD) update rules.  train_local is
// safe to call from any number of threads at once: its batch, gradient and
// workspace buffers are thread-local, reused by the next job on the same
// thread and reset or overwritten before they are read.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/network.hpp"

namespace fedhisyn::core {

enum class UpdateKind { kSgd, kProx, kScaffold };

/// Optional extra tensors for the non-plain update rules.  Spans must stay
/// valid for the duration of the call.
struct UpdateExtras {
  std::span<const float> prox_anchor;  // FedProx: global weights
  float prox_mu = 0.0f;
  std::span<const float> c_local;   // SCAFFOLD: device control variate
  std::span<const float> c_global;  // SCAFFOLD: server control variate
  /// Heavy-ball momentum for kSgd (0 = plain SGD).  The velocity buffer is
  /// job-local (reset at the start of every training job).
  float momentum = 0.0f;
};

struct TrainOutcome {
  float mean_loss = 0.0f;  // mean over all steps of the job
  std::int64_t steps = 0;  // number of SGD steps taken
};

/// Run `epochs` epochs of mini-batch SGD on `shard`, updating `weights` in
/// place.  Batches are reshuffled every epoch from `rng`.
TrainOutcome train_local(const nn::Network& network, std::span<float> weights,
                         const data::Shard& shard, int epochs, int batch_size, float lr,
                         UpdateKind kind, const UpdateExtras& extras, Rng& rng);

}  // namespace fedhisyn::core
