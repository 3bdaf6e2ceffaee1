#include "core/algorithm.hpp"

#include "common/check.hpp"
#include "core/trainer.hpp"
#include "sim/participation.hpp"

namespace fedhisyn::core {

FlAlgorithm::FlAlgorithm(const FlContext& ctx) : ctx_(ctx), rng_(ctx.opts.seed) {
  FEDHISYN_CHECK(ctx_.network != nullptr && ctx_.fed != nullptr && ctx_.fleet != nullptr);
  FEDHISYN_CHECK(ctx_.fed->device_count() == ctx_.fleet->size());
  FEDHISYN_CHECK(ctx_.network->finalized());
  // All algorithms start from the same deterministic initialisation given the
  // same seed, so method comparisons share a common origin.
  Rng init_rng(ctx_.opts.seed ^ 0xA5A5A5A5ull);
  global_ = ctx_.network->init_weights(init_rng);
}

float FlAlgorithm::evaluate_test_accuracy() {
  const auto& test = ctx_.fed->test;
  return ctx_.network->accuracy(global_, test.x,
                                std::span<const std::int32_t>(test.y));
}

double FlAlgorithm::round_duration() const {
  return sim::slowest_job_time(*ctx_.fleet, ctx_.opts.local_epochs);
}

std::vector<std::size_t> FlAlgorithm::draw_participants() {
  return sim::sample_participants(ctx_.device_count(), ctx_.opts.participation, rng_);
}

Rng FlAlgorithm::job_stream(std::uint64_t round_mult, std::uint64_t device_mult,
                            std::size_t device, std::uint64_t sequence) const {
  return Rng(job_stream_seed(round_mult, device_mult, device, sequence));
}

std::uint64_t FlAlgorithm::job_stream_seed(std::uint64_t round_mult,
                                           std::uint64_t device_mult,
                                           std::size_t device,
                                           std::uint64_t sequence) const {
  return ctx_.opts.seed ^
         (round_mult * static_cast<std::uint64_t>(rounds_completed_ + 1)) ^
         (device_mult * (device + 1)) ^ sequence;
}

RoundGraphStats FlAlgorithm::run_async_round(
    std::uint64_t round_mult, std::uint64_t device_mult,
    const std::function<float(std::int64_t)>& mix_alpha) {
  const auto participants = draw_participants();
  const double interval = round_duration();
  const int epochs = ctx_.opts.local_epochs;
  const std::size_t n = ctx_.device_count();

  // ---- Phase 1: symbolic replay of the round's event timeline.  Job
  // durations depend only on the fleet profile, so the full schedule — which
  // uploads happen, in which order, and which server version each job
  // trains — is known before any training runs.  The replay mirrors the
  // legacy event loop exactly, but records node ids in a RoundGraph instead
  // of moving weights: the round-start snapshot is a seed node, every
  // upload is a job, and every re-download is a version node the upload's
  // commit publishes.  The EventQueue's (time, sequence) ordering — schedule
  // sequences included — is identical to the legacy drain's, so the per-job
  // Rng streams are too.
  RoundGraph graph;
  const std::int64_t snapshot = graph.add_seed(global_);

  std::vector<std::int64_t> download_node(n, kNoRoundNode);
  std::vector<std::int64_t> download_version(n, 0);
  sim::EventQueue queue;
  queue.reset(0.0);
  for (const auto device : participants) {
    download_node[device] = snapshot;
    download_version[device] = 0;
    comm_.record_server_download();
  }
  for (const auto device : participants) {
    const double job = sim::local_training_time((*ctx_.fleet)[device], epochs);
    if (job <= interval) queue.schedule(job, device);
  }

  // staleness[j] = server versions advanced between job j's download and its
  // upload; version v is the state after v commits, so job j uploads at
  // version j.
  std::vector<std::int64_t> staleness;
  while (!queue.empty()) {
    const sim::Event event = queue.pop();
    const std::size_t device = event.device;
    RoundJob job;
    job.device = device;
    job.input_a = download_node[device];
    job.stream = job_stream_seed(round_mult, device_mult, device,
                                 static_cast<std::uint64_t>(event.sequence));
    const std::size_t index = graph.add_job(job);
    comm_.record_server_upload();
    staleness.push_back(static_cast<std::int64_t>(index) -
                        download_version[device]);

    // Download the mixed global model and go again if another job fits.
    const double next = sim::local_training_time((*ctx_.fleet)[device], epochs);
    if (event.time + next <= interval) {
      comm_.record_server_download();
      const std::int64_t version = graph.add_version();
      graph.publish_on_commit(index, version);
      download_node[device] = version;
      download_version[device] = static_cast<std::int64_t>(index) + 1;
      queue.schedule(event.time + next, device);
    }
  }

  // ---- Phase 2: execute.  Training jobs fan out on the pool in wavefronts;
  // the cheap server mixes run as the graph's commit chain, strictly in
  // event order on this thread.
  const RoundGraphExecutor executor(RoundGraphExecutor::Mode::kOverlap);
  last_round_stats_ = executor.run(
      graph,
      [&](const RoundJob& job, std::vector<float>& model) {
        run_async_job(job.device, epochs, Rng(job.stream), std::span<float>(model));
      },
      [&](std::size_t index, const std::vector<float>& output,
          std::vector<float>* publish_into) {
        const float alpha = mix_alpha(staleness[index]);
        for (std::size_t i = 0; i < global_.size(); ++i) {
          global_[i] = (1.0f - alpha) * global_[i] + alpha * output[i];
        }
        if (publish_into != nullptr) *publish_into = global_;
      });
  ++rounds_completed_;
  return last_round_stats_;
}

void FlAlgorithm::run_async_job(std::size_t device, int epochs, Rng rng,
                                std::span<float> model) {
  UpdateExtras extras;
  extras.momentum = ctx_.opts.momentum;
  train_local(*ctx_.network, model, ctx_.fed->shards[device], epochs,
              ctx_.opts.batch_size, ctx_.opts.lr, UpdateKind::kSgd, extras, rng);
}

}  // namespace fedhisyn::core
