#include "core/ring_engine.hpp"

#include <deque>

#include "common/check.hpp"
#include "core/round_graph.hpp"

namespace fedhisyn::core {

RingEngine::RingEngine(const FlContext& ctx) : ctx_(ctx) {}

RingEngineResult RingEngine::run_interval(const std::vector<sim::RingTopology>& rings,
                                          const std::vector<std::size_t>& participants,
                                          std::vector<std::vector<float>> initial_models,
                                          double interval, Rng& rng) {
  FEDHISYN_CHECK(interval > 0.0);
  const std::size_t n = ctx_.device_count();
  FEDHISYN_CHECK(initial_models.size() == n);

  // Map each participant to its ring (devices appear in exactly one ring).
  std::vector<const sim::RingTopology*> ring_of(n, nullptr);
  for (const auto& ring : rings) {
    for (const auto member : ring.ordered_members()) {
      FEDHISYN_CHECK(member < n);
      FEDHISYN_CHECK_MSG(ring_of[member] == nullptr,
                         "device " << member << " appears in two rings");
      ring_of[member] = &ring;
    }
  }
  for (const auto p : participants) {
    FEDHISYN_CHECK_MSG(ring_of[p] != nullptr, "participant " << p << " has no ring");
  }

  RingEngineResult result;
  result.jobs_completed.assign(n, 0);

  // The per-job stream base is drawn unconditionally so the caller's rng
  // position stays the same whether or not any job fits the interval.
  const std::uint64_t stream_base = rng.next_u64();

  // ---- Phase 1: symbolic replay of the interval's event timeline. --------
  // Job durations depend only on the fleet profile, so the full schedule —
  // which jobs run, which model each one trains, where its output travels —
  // is known before any training happens.  The replay mirrors the
  // event-by-event semantics exactly, but records RoundGraph node ids
  // instead of moving weights: each device's initial model is a seed node,
  // each training job's output a fresh node.
  RoundGraph graph;
  std::vector<std::int64_t> seed(n);
  for (std::size_t d = 0; d < n; ++d) {
    seed[d] = graph.add_seed(std::move(initial_models[d]));
  }

  // Per-device state: the (input_a, input_b) the next job will train, the
  // most recently received node awaiting its turn (Alg. 1's buffer back), and
  // nodes in flight on links with non-zero delay.  Every device has exactly
  // one ring predecessor, so per-receiver FIFO order is preserved.
  std::vector<std::int64_t> next_a(n, kNoRoundNode);
  std::vector<std::int64_t> next_b(n, kNoRoundNode);
  std::vector<std::int64_t> pending(n, kNoRoundNode);
  std::vector<std::deque<std::int64_t>> in_flight(n);
  std::vector<std::int64_t> last_output(n, kNoRoundNode);

  // Event encoding: id < n -> training completion on device id;
  //                 id >= n -> delivery of the next in-flight model to id-n.
  sim::EventQueue queue;
  queue.reset(0.0);
  const int epochs = ctx_.opts.local_epochs;
  for (const auto device : participants) {
    const double job = sim::local_training_time((*ctx_.fleet)[device], epochs);
    next_a[device] = seed[device];
    if (job <= interval) queue.schedule(job, device);
  }

  while (!queue.empty()) {
    const sim::Event event = queue.pop();
    const double now = event.time;

    if (event.device >= n) {
      // Delivery: the oldest in-flight model reaches its receiver and
      // becomes the buffer back (overwriting an unconsumed older arrival —
      // Alg. 1 always trains the most recent).
      const std::size_t device = event.device - n;
      FEDHISYN_CHECK(!in_flight[device].empty());
      pending[device] = in_flight[device].front();
      in_flight[device].pop_front();
      continue;
    }

    const std::size_t device = event.device;
    // The job scheduled for `device` just finished: record it as a graph
    // node.  The model it trains is value(input_a), or the elementwise mean
    // of the two inputs (the Observation-1 averaging ablation).
    RoundJob job;
    job.device = device;
    job.input_a = next_a[device];
    job.input_b = next_b[device];
    job.stream = stream_base ^ (0x9E3779B97F4A7C15ull * (graph.job_count() + 1));
    const std::size_t index = graph.add_job(job);
    const std::int64_t output = graph.output_of(index);
    last_output[device] = output;
    ++result.jobs_completed[device];

    // Forward to the ring successor (skip self-loops in 1-device rings).
    // Zero-delay links hand over immediately (the paper's simplified
    // setting); positive delays travel via a delivery event (Eq. (5)'s
    // general form).  Models still in flight when the interval ends are
    // dropped — the round is over.
    const std::size_t next = ring_of[device]->successor(device);
    if (next != device) {
      const double delay = (*ctx_.fleet)[device].link_delay;
      if (delay <= 0.0) {
        pending[next] = output;
        ++result.hops;
      } else if (now + delay <= interval) {
        in_flight[next].push_back(output);
        queue.schedule(now + delay, n + next);
        ++result.hops;
      }
    }

    // Pick the next model to train: most recently received, else continue
    // refining the current one (Eq. (7)).
    if (pending[device] != kNoRoundNode) {
      if (ctx_.opts.direct_use) {
        next_a[device] = pending[device];
        next_b[device] = kNoRoundNode;
      } else {
        next_a[device] = output;
        next_b[device] = pending[device];
      }
      pending[device] = kNoRoundNode;
    } else {
      next_a[device] = output;
      next_b[device] = kNoRoundNode;
    }

    const double job_time = sim::local_training_time((*ctx_.fleet)[device], epochs);
    if (now + job_time <= interval) queue.schedule(now + job_time, device);
  }

  // Each device's final model must survive execution for the result;
  // everything else is fair game for the executor's move/free economy, and
  // jobs whose output nothing observes (a fast sender flooding a slow
  // successor's buffer) are pruned — jobs_completed and hops were already
  // counted during the replay, exactly as the serial semantics would.
  for (std::size_t d = 0; d < n; ++d) {
    graph.pin(last_output[d] != kNoRoundNode ? last_output[d] : seed[d]);
  }

  // ---- Phase 2: execute on the shared round engine. ----------------------
  // Wavefront-parallel, bit-identical for any thread count: each job draws
  // from its own stream (derived from the caller's rng and the job's event
  // order), never from thread identity.  No commit chain — ring circulation
  // has no server.
  const RoundGraphExecutor executor(RoundGraphExecutor::Mode::kOverlap);
  executor.run(
      graph,
      [&](const RoundJob& job, std::vector<float>& model) {
        Rng job_rng(job.stream);
        UpdateExtras extras;
        extras.momentum = ctx_.opts.momentum;
        train_local(*ctx_.network, std::span<float>(model),
                    ctx_.fed->shards[job.device], epochs, ctx_.opts.batch_size,
                    ctx_.opts.lr, UpdateKind::kSgd, extras, job_rng);
      },
      nullptr);

  result.device_models.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    result.device_models[d] =
        graph.take(last_output[d] != kNoRoundNode ? last_output[d] : seed[d]);
  }
  return result;
}

}  // namespace fedhisyn::core
