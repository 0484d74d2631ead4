// Intra-node thread parallelism.
//
// PANDA's paper parallelizes within a node with OpenMP. This library
// substitutes a self-contained pool so that many simulated ranks (each
// a thread of the net::Cluster) can own independent, bounded thread
// teams without nested-runtime oversubscription (see DESIGN.md §2).
//
// The single primitive is run(fn): execute fn(thread_id) on all
// `size()` threads and wait. The calling thread participates as thread
// 0, so a pool of size 1 never context-switches. The loop helpers of
// parallel/parallel_for.hpp are layered on top, and every batch loop
// and build phase goes through them.
//
// Concurrent callers: the worker team executes one job at a time, but
// ownership of the team is handed off through one atomic CAS, not a
// mutex — a caller that finds the team busy either parks (run) or is
// told immediately (try_run) so it can execute its work inline
// instead of idling. parallel::for_chunks, the fan-out of every batch
// kernel, uses try_run exactly this way (DESIGN.md §8): a serving
// shard whose batch loses the team race scans on its own core rather
// than sleeping behind another shard's kernel, so no execution unit
// ever waits on a lock to do CPU-bound work.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace panda::parallel {

class ThreadPool {
 public:
  /// Creates a pool that runs jobs on `num_threads` threads
  /// (num_threads - 1 workers plus the caller). num_threads >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Runs fn(thread_id) for thread_id in [0, size()). Blocks until all
  /// invocations return. Exceptions thrown by any invocation are
  /// rethrown on the caller (first one wins). Not reentrant: do not
  /// call run() from inside a job on the same pool.
  ///
  /// Thread safety: run() may be called from multiple threads
  /// concurrently — jobs execute one at a time (team ownership is one
  /// CAS; losers park until the team frees), in no guaranteed order.
  /// On a size-1 pool fn runs directly on each caller with no shared
  /// state, so concurrent callers proceed independently.
  void run(const std::function<void(int)>& fn);

  /// Non-blocking run: executes fn across the team exactly like run()
  /// when the team is free, and returns false WITHOUT running anything
  /// when another caller owns it. parallel::for_chunks then runs the
  /// whole range inline on the caller — the serving frontend's
  /// no-idle-cores mode. On a size-1 pool this always runs inline and
  /// returns true.
  bool try_run(const std::function<void(int)>& fn);

 private:
  void worker_loop(int thread_id);
  /// Fans fn out to the workers and joins; requires team ownership.
  /// Releases ownership (and wakes one parked run() caller) on every
  /// path, including exceptions.
  void run_owned(const std::function<void(int)>& fn);
  bool try_acquire_team() {
    bool expected = false;
    // order: acquire — pairs with run_owned()'s release store; the new
    // owner must see the previous job fully torn down (job_ cleared,
    // errors drained) before fanning out its own.
    return team_busy_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire);
  }

  int size_;
  std::vector<std::thread> workers_;

  /// Team ownership: exactly one caller may fan a job out at a time.
  /// Acquired by CAS (never a lock on the fast path); run() callers
  /// that lose park on caller_cv_, try_run() callers just get false.
  std::atomic<bool> team_busy_{false};
  Mutex caller_mutex_;  // parks blocked run() callers only; guards no data
  CondVar caller_cv_;

  Mutex mutex_;
  CondVar job_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* job_ PANDA_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ PANDA_GUARDED_BY(mutex_) = 0;
  int pending_ PANDA_GUARDED_BY(mutex_) = 0;
  bool shutdown_ PANDA_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ PANDA_GUARDED_BY(mutex_);
};

}  // namespace panda::parallel
