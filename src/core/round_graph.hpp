// RoundGraph: the shared task-graph round engine behind every event-driven
// training round (FedHiSyn's ring circulation, the FedAsync/TAFedAvg
// asynchronous baselines, the decentralised figure modes).
//
// The pattern all of them share: virtual-time job durations depend only on
// the fleet profile, never on training output, so a round's entire event
// timeline can be replayed *symbolically* first.  The replay produces a DAG
// whose nodes are model values (initial per-device "seed" models, trained job
// outputs, and server-side "version" snapshots published by a serial commit
// chain) and whose jobs each train one node's model with a private seeded Rng
// stream.  RoundGraphExecutor then runs that DAG on the ParallelExecutor
// pool.
//
// Execution modes:
//   * kOverlap — jobs run wavefront-parallel: a job is scheduled one wave
//     after its last input is produced, and the commit chain (cheap server
//     mixes) advances in job order between waves.  Every production round
//     runs this mode.
//   * kSerial — jobs run one at a time in commit order on the caller thread:
//     the reference the overlap engine is tested against.
//
// Determinism contract: for a fixed graph (same replay), kSerial and kOverlap
// at any thread count produce bit-identical node values and commit
// sequences.  Jobs draw from per-job streams stored in the graph, never from
// thread identity, and commits run in job order on the caller thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fedhisyn::core {

constexpr std::int64_t kNoRoundNode = -1;

/// One training job: train the model at input_a (or the elementwise mean of
/// input_a and input_b) with the Rng stream seeded by `stream`.
struct RoundJob {
  std::size_t device = 0;
  std::int64_t input_a = kNoRoundNode;
  std::int64_t input_b = kNoRoundNode;  // optional second input, averaged in
  std::uint64_t stream = 0;             // seed of the job's private Rng stream
};

/// The DAG of one round.  Build order: create nodes and jobs during the
/// symbolic replay, then hand the graph to a RoundGraphExecutor.  Jobs commit
/// in append order (the replay's event order).
class RoundGraph {
 public:
  /// Node carrying an initial model value (device seed model, round-start
  /// global snapshot).
  std::int64_t add_seed(std::vector<float> value);

  /// Placeholder node whose value a later commit publishes (a server-side
  /// model version).  Must be tied to a job with publish_on_commit before
  /// execution.
  std::int64_t add_version();

  /// Append a job; returns its index.  Inputs must be existing nodes.
  std::size_t add_job(RoundJob job);

  /// The node holding `job`'s trained output model.
  std::int64_t output_of(std::size_t job) const;

  /// Declare that `job`'s commit publishes `node` (an add_version node).
  void publish_on_commit(std::size_t job, std::int64_t node);

  /// Keep `node`'s value alive through execution; claim it with take().
  void pin(std::int64_t node);

  /// Claim a pinned node's value after execution.
  std::vector<float> take(std::int64_t node);

  std::size_t job_count() const { return jobs_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  const RoundJob& job(std::size_t index) const { return jobs_[index]; }

 private:
  friend class RoundGraphExecutor;

  enum class NodeKind : std::uint8_t { kSeed, kOutput, kVersion };

  struct Node {
    std::vector<float> value;
    NodeKind kind = NodeKind::kSeed;
    bool pinned = false;
    bool has_value = false;
    /// kOutput: producing job.  kVersion: job whose commit publishes it.
    std::int64_t producer = kNoRoundNode;
  };

  std::vector<Node> nodes_;
  std::vector<RoundJob> jobs_;
  /// Per-job output node / node published by the job's commit (kNoRoundNode
  /// when the commit publishes nothing).
  std::vector<std::int64_t> outputs_;
  std::vector<std::int64_t> publishes_;
};

/// Execution statistics of one run (informational: stats may vary with mode
/// and thread count even though the committed bytes never do).
struct RoundGraphStats {
  std::size_t jobs = 0;    // jobs executed (after pruning unobservable ones)
  std::size_t pruned = 0;  // jobs dropped because nothing observes them
  std::size_t waves = 0;   // parallel waves dispatched (kOverlap)
  /// Modeled parallel makespan in job units: sum over waves of
  /// ceil(batch / threads).  jobs / dispatch_slots is the schedule's
  /// overlap factor — deterministic for a fixed (graph, thread count),
  /// independent of the machine actually running it.
  std::size_t dispatch_slots = 0;
};

class RoundGraphExecutor {
 public:
  enum class Mode { kSerial, kOverlap };

  /// Train the model in place.  Must be a pure deterministic function of
  /// (job.device, job.stream, model bytes); runs on any pool thread.
  using TrainFn =
      std::function<void(const RoundJob& job, std::vector<float>& model)>;

  /// Serial commit chain, invoked in job order on the caller thread with the
  /// job's final output.  `publish_into`, when non-null, is the storage of
  /// the version node this commit publishes — fill it before returning.
  /// Pass nullptr as the CommitFn for graphs with no server (ring rounds);
  /// jobs whose output nothing observes are then pruned.
  using CommitFn = std::function<void(
      std::size_t job, const std::vector<float>& output,
      std::vector<float>* publish_into)>;

  explicit RoundGraphExecutor(Mode mode) : mode_(mode) {}

  /// Execute the graph: train every (live) job and run the commit chain.
  /// Values of pinned nodes survive for RoundGraph::take(); everything else
  /// is freed as soon as its last reader has run.
  RoundGraphStats run(RoundGraph& graph, const TrainFn& train,
                      const CommitFn& commit) const;

 private:
  Mode mode_;
};

}  // namespace fedhisyn::core
