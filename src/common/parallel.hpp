// ParallelExecutor: the library-wide worker pool behind every parallel loop
// (per-device local training, GEMM rows, conv batches, fleet evaluation).
//
// Design rules that every caller relies on:
//   * Determinism is the caller's contract: a body invoked for index i must
//     depend only on i (plus per-index seeded Rng streams), never on which
//     thread runs it or in which order indices complete.  Under that contract
//     a 1-thread run and an N-thread run are bit-identical.
//   * The caller thread participates alongside the pool workers, and one
//     body invocation runs start to finish on one thread.
//   * Per-thread scratch is `thread_local` at its point of use
//     (ScratchArena's kernel buffers, the trainer's batch buffers, the
//     evaluation workspace), never an array indexed by worker.  A body may
//     leave that scratch in any state: its next user must overwrite what it
//     reads, so contents never reach a result.
//   * Nested parallel_for calls (e.g. a parallel GEMM inside a parallel
//     device loop) execute inline on the calling thread — no deadlock, no
//     oversubscription.
//
// Thread count resolution: FEDHISYN_THREADS env var when set to a positive
// integer, otherwise std::thread::hardware_concurrency().  Programs can
// override at runtime with set_thread_count() (the --threads flag of the CLI
// and benches); tests drop to 1 thread to compare against parallel runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace fedhisyn {

/// Thread-local aligned scratch buffers for the hot kernels (GEMM panel
/// packing, conv im2col columns).  Buffers live for the thread's lifetime and
/// grow monotonically, so steady-state kernel calls never allocate.
///
/// Each named buffer is independent: a kernel may hold several live at once
/// (conv holds its column buffers while the nested GEMM packs panels).  A
/// buffer's contents are invalidated by the next `buffer()` call for the same
/// name on the same thread — borrow, fill, use, and don't stash the span.
/// Being thread-local, the arena needs no locking and composes with nested
/// pools (grid cells binding private executors) for free.
class ScratchArena {
 public:
  enum Buf : std::size_t {
    kGemmPackA = 0,       // packed A row strip (k x MR, zero-padded)
    kGemmPackB = 1,       // packed B column panel (k x NC, zero-padded)
    kConvColumns = 2,     // im2col column matrix
    kConvGradColumns = 3, // conv backward column-gradient matrix
    kBufferCount = 4,
  };

  /// The calling thread's buffer `which`, grown to hold >= `floats` floats,
  /// 64-byte aligned.  Contents of a freshly grown buffer are unspecified.
  static std::span<float> buffer(Buf which, std::size_t floats);
};

class ParallelExecutor {
 public:
  using Body = std::function<void(std::size_t index)>;

  /// threads == 0 resolves via threads_from_env().
  explicit ParallelExecutor(std::size_t threads = 0);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Threads a parallel_for runs on (pool workers + the participating caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Resize the pool (clamped to >= 1).  Must not be called while a
  /// parallel_for on this executor is in flight.
  void set_thread_count(std::size_t threads);

  /// Invoke body(i) once for every i in [0, n).  Blocks until all
  /// indices complete; the first exception thrown by a body is rethrown on
  /// the caller after the loop drains.  Safe to call with n == 0.
  ///
  /// One top-level dispatch at a time: concurrent parallel_for calls from
  /// *different* threads on the same executor are rejected (throws).  Nested
  /// calls from inside a body are fine (they run inline); fan out over items,
  /// not over callers.
  void parallel_for(std::size_t n, const Body& body);

  /// True when the current thread is already inside a parallel_for body (used
  /// by kernels to decide against re-dispatching).
  static bool in_parallel_region();

  /// FEDHISYN_THREADS if set to a positive integer, else hardware
  /// concurrency, else 1.
  static std::size_t threads_from_env();

  /// The process-wide pool used by the library's kernels and algorithms.
  static ParallelExecutor& global();

  /// The executor the calling thread should dispatch on: the innermost
  /// Bind on this thread, or global() when none is bound.  Kernels and
  /// algorithms fan out on current() so a scheduler can give concurrent
  /// experiment cells private pools (each cell thread binds its own executor
  /// and the cells never contend for global(), which serves one job at once).
  static ParallelExecutor& current();

  /// RAII thread-local override of current() for the calling thread.  Bind
  /// an executor for the duration of a scope; restores the previous binding
  /// (or global()) on destruction.  The binding is per-thread: it does not
  /// propagate to threads spawned inside the scope.
  class Bind {
   public:
    explicit Bind(ParallelExecutor& executor);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    ParallelExecutor* previous_;
  };

 private:
  void worker_loop();
  void run_span(const Body& body, std::size_t n);
  void start_workers(std::size_t threads) FEDHISYN_EXCLUDES(mutex_);
  void stop_workers() FEDHISYN_EXCLUDES(mutex_);

  /// Structural state: mutated only by start_workers/stop_workers, which the
  /// API forbids calling concurrently with a parallel_for (workers are
  /// joined before the vector changes), so it needs no guard.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  /// condition_variable_any so the annotated Mutex can be waited on
  /// directly; guarded reads in wait loops stay visible to the analysis.
  std::condition_variable_any cv_work_;
  std::condition_variable_any cv_done_;
  /// Job clock: bumped once per dispatched parallel_for; a worker whose
  /// `seen` lags behind has a job waiting.
  std::uint64_t generation_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  bool stop_ FEDHISYN_GUARDED_BY(mutex_) = false;
  const Body* body_ FEDHISYN_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_n_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> next_{0};  // index claim counter, lock-free
  std::size_t active_workers_ FEDHISYN_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ FEDHISYN_GUARDED_BY(mutex_);
  /// Set while a top-level job is in flight.
  bool dispatching_ FEDHISYN_GUARDED_BY(mutex_) = false;
};

}  // namespace fedhisyn
