// The concurrent query-serving frontend (DESIGN.md §8).
//
// QueryService turns the repository's batch engines into an online
// service: many client threads submit individual KNN / radius
// requests; requests are admitted into one bounded lock-free ring,
// drained by `workers` threads that each take whatever is queued (up
// to max_batch) and execute it at once through a Backend snapshot,
// and completed through per-request futures with latency accounting.
//
//   clients ──submit──▶ MPMC ring ──take what is queued──▶ batch
//        ◀──future────            ◀──────execute──────── Backend
//
// Why a lock-free ring: a mutex-guarded admission queue serializes
// every client and every worker on one cache line. Admission is a
// bounded Vyukov MPMC ring (parallel/mpmc_queue.hpp) instead; the hot
// path is CAS + release-store only: no mutex, no condition variable,
// no allocation beyond the promise pair. Every worker drains the same
// ring, which DESIGN.md §8 backs with a closed-loop sweep.
//
// Why batches without a timer: a worker never waits for a batch to
// fill. Under light load it runs each request alone as soon as it is
// popped; under heavy load requests pile up while the worker executes,
// so the next take is a full batch and one batched kernel call
// amortizes queue handoff and descent across it (the ParlayANN /
// KNN-join observation — throughput lives in hardware-friendly
// batches).
//
// Index swap (rebuild-behind-traffic): the service holds the served
// Backend in one std::atomic<std::shared_ptr>. Workers pin the current
// snapshot for exactly one batch; swap_backend() replaces it with one
// store, so every request observes exactly one snapshot — in-flight
// batches finish on the old index, batches pinned after the swap use
// the new one, and the old index is destroyed when its last batch
// drops the reference. Nothing blocks traffic.
//
// Backpressure: admission is bounded by queue_capacity.
// Overflow::Block parks submitters until space frees (closed-loop
// clients); Overflow::Reject fails the request once the ring is full
// (open-loop frontends that shed load instead of growing latency).
// Both policies are spin-then-park wrappers over the non-blocking ring
// — the lock only ever appears on the cold (queue-full / queue-empty)
// edges.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "parallel/mpmc_queue.hpp"
#include "serve/backend.hpp"
#include "serve/serve_stats.hpp"

namespace panda::serve {

struct ServeConfig {
  /// The most requests a worker takes from the queue into one batch.
  std::size_t max_batch = 64;
  /// Admission bound (backpressure trigger).
  std::size_t queue_capacity = 4096;
  enum class Overflow {
    Block,   // submit() waits for queue space
    Reject,  // submit() fails the future / try_submit() returns false
  };
  Overflow overflow = Overflow::Block;
  /// Batch-executing worker threads draining the ring. Workers share
  /// the backend's thread pool; >1 overlaps the completion and
  /// bookkeeping of one batch with the kernel of the next.
  int workers = 1;
};

class QueryService {
 public:
  /// Starts the workers immediately. `backend` must be non-null.
  QueryService(std::shared_ptr<Backend> backend, const ServeConfig& config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request; the future completes with the exact answer
  /// (ascending (dist², id), identical to a per-request engine call).
  /// Validates dimensionality, finite query coordinates and parameters
  /// (throws panda::Error). Under Overflow::Block a full service blocks
  /// the caller; under Overflow::Reject the returned future holds a
  /// panda::Error. Throws panda::Error if the service has been shut
  /// down.
  std::future<Result> submit(Request request);

  /// Reject-style admission without the exception: returns false (and
  /// leaves *out untouched) if the queue is full or the service is
  /// stopped, regardless of the configured Overflow policy. Invalid
  /// requests throw panda::Error as in submit().
  bool try_submit(Request request, std::future<Result>* out);

  /// Ingest path (live-updatable indexes, DESIGN.md §12): routes a
  /// write batch to the currently served backend. The backend must be
  /// mutable (an Engine::Mutable index behind IndexBackend) — an
  /// immutable backend surfaces its typed panda::Error. Visibility
  /// follows the snapshot rule of the mutable tier: every request
  /// admitted after ingest() returns observes the new points;
  /// in-flight batches finish on the snapshot they pinned and never
  /// block on the writer. Throws panda::Error after shutdown.
  void ingest(const data::PointSet& points);

  /// Erase counterpart of ingest(): removes points by global id from
  /// the served mutable index, with the same visibility ordering
  /// (requests admitted after the call never return an erased id).
  /// Returns how many ids were live.
  std::size_t erase_ids(std::span<const std::uint64_t> ids);

  /// Replaces the served index snapshot with one atomic store. Every
  /// request observes exactly one snapshot: in-flight batches finish
  /// on the old one, requests admitted after swap_backend returns are
  /// answered by `next`. The old snapshot is released when its last
  /// in-flight batch completes. dims() must match.
  void swap_backend(std::shared_ptr<Backend> next);

  /// The currently served snapshot.
  std::shared_ptr<Backend> backend() const;

  /// Drains the queue (every admitted request still completes exactly
  /// once), stops the workers, and rejects future submissions.
  /// Idempotent and safe to call concurrently (atomic state machine +
  /// once_flag); also run by the destructor.
  void shutdown();

  /// Counter snapshot (see ServeStats).
  ServeStats stats() const;

 private:
  /// Service lifecycle (atomic state machine, DESIGN.md §8):
  /// Running —shutdown()→ Draining (admission closed, in-flight
  /// admissions settling, workers still serving) → drain_ raised
  /// (workers empty the queue and exit) → Stopped.
  enum State : int { kRunning = 0, kDraining = 1, kStopped = 2 };

  struct Pending {
    Request request;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  /// Blocks (spin, then park) until a first request is popped. Returns
  /// false when draining and the queue is empty (worker exit).
  bool acquire_first(Pending& out);
  void execute(std::vector<Pending>& batch);
  /// Core admission; returns false when rejected (full or stopped).
  bool admit(Request&& request, std::future<Result>* out, bool blocking);
  /// Bounded push; false when the queue is at capacity. On success
  /// wakes a parked worker if any.
  bool push(Pending& pending);
  /// Non-blocking pop; frees logical space and wakes a parked
  /// Block-policy submitter if any.
  bool pop(Pending& out);
  void validate(const Request& request) const;

  ServeConfig config_;
  std::size_t dims_;
  parallel::MpmcQueue<Pending> queue_;
  /// Logical occupancy: bounds admission at exactly queue_capacity (the
  /// ring rounds up to a power of two) and doubles as the queue-depth
  /// gauge.
  std::atomic<std::uint64_t> depth_{0};
  /// High-water mark, maintained by relaxed CAS-max on admission.
  std::atomic<std::uint64_t> max_depth_{0};
  /// The served snapshot; batches pin it with one atomic load.
  std::atomic<std::shared_ptr<Backend>> backend_;
  std::vector<std::thread> workers_;

  // Lifecycle (see State).
  std::atomic<int> state_{kRunning};
  std::atomic<bool> drain_{false};
  std::atomic<int> admissions_in_flight_{0};
  std::once_flag shutdown_once_;

  // Cold-edge worker parking (queue-empty edge). The mutex guards no
  // data — the state workers re-check (depth_, drain_) is all atomics;
  // it exists only so the eventcount notify/wait pair has a common
  // rendezvous.
  Mutex park_mutex_;
  CondVar work_cv_;
  std::atomic<int> parked_{0};

  // Cold-edge parking for Block-policy submitters (queue full). Guards
  // no data, same eventcount-rendezvous role as park_mutex_.
  mutable Mutex space_mutex_;
  CondVar space_cv_;
  std::atomic<int> space_waiters_{0};

  // Hot-path counters: atomics, never a lock (DESIGN.md §8).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flushes_on_size_{0};
  std::atomic<std::uint64_t> flushes_on_window_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> ingest_batches_{0};
  std::atomic<std::uint64_t> ingested_points_{0};
  std::atomic<std::uint64_t> erased_ids_{0};
  static constexpr std::size_t kBatchBuckets = 20;
  std::array<std::atomic<std::uint64_t>, kBatchBuckets> batch_size_log2_{};
  std::atomic<std::uint64_t> batched_requests_{0};
  LatencyHistogram latency_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> last_completion_ns_{0};  // since start_
};

}  // namespace panda::serve
