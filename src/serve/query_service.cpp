#include "serve/query_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace panda::serve {

namespace {

// The eventcount handshakes below need a full seq_cst fence between a
// relaxed publish and a relaxed read of the waiter counter. TSan does
// not model standalone fences (GCC rejects them outright under
// -fsanitize=thread -Werror), so under TSan we substitute a seq_cst
// RMW on a shared dummy atomic: both sides of each handshake pass
// through it, which gives the same pairwise ordering guarantee in a
// form the race detector understands.
#if !defined(PANDA_TSAN) && defined(__SANITIZE_THREAD__)
#define PANDA_TSAN 1
#endif
#if !defined(PANDA_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PANDA_TSAN 1
#endif
#endif
#if defined(PANDA_TSAN)
inline void seq_cst_fence() {
  static std::atomic<unsigned> dummy{0};
  dummy.fetch_add(1, std::memory_order_seq_cst);
}
#else
inline void seq_cst_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#endif

}  // namespace

QueryService::QueryService(std::shared_ptr<Backend> backend,
                           const ServeConfig& config)
    : config_(config),
      // MpmcQueue refuses a zero capacity with a typed panda::Error.
      queue_(config.queue_capacity),
      start_(std::chrono::steady_clock::now()) {
  PANDA_CHECK_MSG(backend != nullptr, "QueryService needs a backend");
  PANDA_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  PANDA_CHECK_MSG(config_.workers >= 1, "workers must be >= 1");
  dims_ = backend->dims();
  backend_.store(std::move(backend));
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryService::~QueryService() { shutdown(); }

void QueryService::validate(const Request& request) const {
  PANDA_CHECK_MSG(request.query.size() == dims_,
                  "request dimensionality mismatch");
  // A NaN or infinite coordinate breaks the (dist², id) order every
  // answer is sorted by; refuse it here, alone, rather than letting it
  // fail or poison the batch it would join.
  for (const float v : request.query) {
    PANDA_CHECK_MSG(std::isfinite(v),
                    "request query coordinates must be finite, got " << v);
  }
  if (request.kind == Request::Kind::Knn) {
    PANDA_CHECK_MSG(request.k >= 1, "k must be >= 1");
  } else {
    PANDA_CHECK_MSG(request.radius >= 0.0f, "radius must be non-negative");
  }
}

bool QueryService::push(Pending& pending) {
  // Logical occupancy bounds admission at exactly queue_capacity (the
  // ring itself is the next power of two). Reserve space first: once
  // reserved, the ring push below cannot fail permanently.
  // order: acq_rel — the reservation both publishes this submitter's
  // prior writes to the consumer that frees the slot and observes the
  // release half of pop()'s decrement, keeping the depth bound exact
  // under concurrent push/pop.
  const std::uint64_t depth =
      depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > config_.queue_capacity) {
    // order: relaxed — undoing our own reservation publishes nothing;
    // the ring was never touched.
    depth_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  // order: relaxed — max_depth_ is a monotonic gauge read only by
  // stats(); it orders nothing.
  std::uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_depth_.compare_exchange_weak(seen, depth,
                                           std::memory_order_relaxed)) {
  }
  pending.enqueued = std::chrono::steady_clock::now();
  unsigned spins = 0;
  while (!queue_.try_push(std::move(pending))) {
    // Space is reserved, so the ring is only transiently wrap-blocked
    // by a consumer mid-recycle; spin it out.
    parallel::spin_backoff(spins);
  }
  // Eventcount handoff (publish, fence, read parked): either the
  // parked worker's final re-pop sees this push, or its parked count
  // is visible here and we wake it under its mutex.
  // order: relaxed — the seq_cst fence above supplies the ordering;
  // the load itself only needs the fenced value.
  seq_cst_fence();
  if (parked_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(park_mutex_);
    work_cv_.notify_one();
  }
  return true;
}

bool QueryService::pop(Pending& out) {
  if (!queue_.try_pop(out)) return false;
  // order: acq_rel — release publishes the freed slot to the next
  // push() reservation; acquire pairs with that push's release half so
  // the consumer sees the submitter's writes.
  depth_.fetch_sub(1, std::memory_order_acq_rel);
  // Mirror-image eventcount for Block-policy submitters parked on a
  // full service.
  // order: relaxed — ordering comes from the seq_cst fence above.
  seq_cst_fence();
  if (space_waiters_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(space_mutex_);
    space_cv_.notify_all();
  }
  return true;
}

bool QueryService::admit(Request&& request, std::future<Result>* out,
                         bool blocking) {
  validate(request);
  // Admission guard: shutdown() closes state_, then waits for this
  // count to settle before raising drain_ — so every request that
  // passes the state check below is guaranteed a worker will pop it.
  admissions_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct InFlightGuard {
    std::atomic<int>& count;
    ~InFlightGuard() { count.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{admissions_in_flight_};
  if (state_.load(std::memory_order_seq_cst) != kRunning) return false;

  Pending pending;
  pending.request = std::move(request);
  std::future<Result> future = pending.promise.get_future();
  for (;;) {
    if (push(pending)) {
      // order: relaxed — stats counter; stats() tolerates a stale view,
      // and completion ordering is carried by the future.
      submitted_.fetch_add(1, std::memory_order_relaxed);
      *out = std::move(future);
      return true;
    }
    if (!blocking) {
      // order: relaxed — stats counter, same contract as submitted_.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Queue full: park until a worker frees space (cold edge; the
    // 1 ms backstop makes a lost wakeup a hiccup, not a hang).
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    seq_cst_fence();
    {
      // order: relaxed (both loads) — the predicate is a wake hint; the
      // authoritative state_ check below and the push() retry
      // re-validate with full ordering, and the 1 ms backstop bounds
      // any stale read.
      MutexLock lock(space_mutex_);
      space_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return state_.load(std::memory_order_relaxed) != kRunning ||
               depth_.load(std::memory_order_relaxed) <
                   config_.queue_capacity;
      });
    }
    space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (state_.load(std::memory_order_seq_cst) != kRunning) return false;
  }
}

std::future<Result> QueryService::submit(Request request) {
  std::future<Result> future;
  const bool blocking = config_.overflow == ServeConfig::Overflow::Block;
  if (admit(std::move(request), &future, blocking)) return future;
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService is shut down");
  // Overflow::Reject with a full service: fail the future, not the
  // call, so open-loop clients can keep a uniform submit-and-collect
  // shape.
  std::promise<Result> broken;
  broken.set_exception(
      std::make_exception_ptr(Error("serve queue full (rejected)")));
  return broken.get_future();
}

bool QueryService::try_submit(Request request, std::future<Result>* out) {
  PANDA_CHECK_MSG(out != nullptr, "try_submit needs an output future");
  return admit(std::move(request), out, /*blocking=*/false);
}

void QueryService::ingest(const data::PointSet& points) {
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService::ingest after shutdown");
  PANDA_CHECK_MSG(points.dims() == dims_,
                  "ingest batch must keep the served dimensionality");
  // Fault-injection hook: the crash-recovery tests kill the process
  // here — before the backend (and its WAL) sees the batch — to prove
  // an unacknowledged ingest leaves no trace after recovery.
  PANDA_FAILPOINT("serve.ingest");
  // Pin the currently served backend exactly like a worker pins it
  // for a batch. The mutable index serializes writers internally;
  // queries keep draining against their own pins.
  const std::shared_ptr<Backend> backend = backend_.load();
  backend->ingest(points);
  // order: relaxed — stats counters only.
  ingest_batches_.fetch_add(1, std::memory_order_relaxed);
  ingested_points_.fetch_add(points.size(), std::memory_order_relaxed);
}

std::size_t QueryService::erase_ids(std::span<const std::uint64_t> ids) {
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService::erase_ids after shutdown");
  const std::shared_ptr<Backend> backend = backend_.load();
  const std::size_t erased = backend->erase_ids(ids);
  // order: relaxed — stats counter only.
  erased_ids_.fetch_add(erased, std::memory_order_relaxed);
  return erased;
}

void QueryService::swap_backend(std::shared_ptr<Backend> next) {
  PANDA_CHECK_MSG(next != nullptr, "swap_backend needs a backend");
  PANDA_CHECK_MSG(next->dims() == dims_,
                  "swapped index must keep the served dimensionality");
  // Every batch pins exactly one snapshot, and a request admitted
  // after this store is answered by `next` (its batch's pin
  // happens-after the admission, which happens-after the store).
  backend_.store(std::move(next));
  // order: relaxed — stats counter only.
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<Backend> QueryService::backend() const {
  return backend_.load();
}

bool QueryService::acquire_first(Pending& out) {
  for (;;) {
    // Fast path: work is already queued.
    for (int spin = 0; spin < 64; ++spin) {
      if (pop(out)) return true;
      parallel::cpu_relax();
    }
    // order: acquire — pairs with shutdown()'s seq_cst store; a worker
    // that sees drain must also see every admission that settled
    // before it was raised.
    if (drain_.load(std::memory_order_acquire)) {
      // Draining: one final pop; an empty queue means every admitted
      // request has been claimed by some worker — exit.
      return pop(out);
    }
    // Park (cold edge). Advertise, fence, re-check: a racing push
    // either sees parked_ > 0 and notifies under the mutex, or this
    // final pop sees its item. The bounded wait is a backstop only.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    seq_cst_fence();
    if (pop(out)) {
      parked_.fetch_sub(1, std::memory_order_seq_cst);
      return true;
    }
    {
      // order: relaxed (both loads) — wake hint only; the loop
      // re-checks drain_ with acquire and re-pops after waking, and
      // the 1 ms backstop bounds a stale view.
      MutexLock lock(park_mutex_);
      work_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return drain_.load(std::memory_order_relaxed) ||
               depth_.load(std::memory_order_relaxed) > 0;
      });
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void QueryService::worker_loop() {
  std::vector<Pending> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    Pending first;
    if (!acquire_first(first)) return;
    batch.clear();
    batch.push_back(std::move(first));
    // Take whatever else is already queued, up to max_batch, and run it
    // at once: the worker never waits for a batch to fill.
    while (batch.size() < config_.max_batch) {
      Pending next;
      if (!pop(next)) break;
      batch.push_back(std::move(next));
    }
    execute(batch);
  }
}

void QueryService::execute(std::vector<Pending>& batch) {
  // Pin the served snapshot for exactly this batch (swap-safe).
  std::shared_ptr<Backend> backend = backend_.load();

  std::vector<Request> requests;
  requests.reserve(batch.size());
  for (Pending& p : batch) requests.push_back(std::move(p.request));

  std::vector<Result> results;
  std::exception_ptr error;
  try {
    backend->run_batch(requests, results);
    PANDA_CHECK_MSG(results.size() == batch.size(),
                    "backend answered the wrong batch size");
  } catch (...) {
    error = std::current_exception();
  }

  // All bookkeeping happens BEFORE the promises are fulfilled: a
  // client that has observed its result must already find itself in
  // the counters (tests read stats() right after the last get()).
  // order: relaxed (every counter below) — stats-only accounting; the
  // client-visible ordering guarantee ("a client that has observed
  // its result finds itself in the counters") is carried by the
  // promise/future synchronization of set_value below, not by these.
  const auto now = std::chrono::steady_clock::now();
  if (error) {
    // Failed requests are counted but not timed: the histogram is
    // completion latency (latency.count tracks completed).
    failed_.fetch_add(batch.size(), std::memory_order_relaxed);
  } else {
    for (const Pending& p : batch) {
      latency_.record(
          std::chrono::duration<double, std::micro>(now - p.enqueued)
              .count());
    }
    // order: relaxed — see the bookkeeping note above.
    completed_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  // order: relaxed (this store and the adds below) — same stats-only
  // contract as the bookkeeping note above.
  last_completion_ns_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
              .count()),
      std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  const auto bucket = std::min<std::size_t>(
      kBatchBuckets - 1,
      static_cast<std::size_t>(std::bit_width(batch.size()) - 1));
  batch_size_log2_[bucket].fetch_add(1, std::memory_order_relaxed);
  // order: relaxed — flush-reason stats counters, same contract. A
  // batch below max_batch closed because the queue ran empty.
  if (batch.size() == config_.max_batch) {
    flushes_on_size_.fetch_add(1, std::memory_order_relaxed);
  } else {
    flushes_on_window_.fetch_add(1, std::memory_order_relaxed);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i].promise.set_exception(error);
    } else {
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

void QueryService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    // 1. Close admission.
    state_.store(kDraining, std::memory_order_seq_cst);
    // 2. Wake Block-policy submitters so they observe the closed state.
    {
      MutexLock lock(space_mutex_);
    }
    space_cv_.notify_all();
    // 3. Let racing admissions settle: after this loop every request
    //    that will ever be admitted is in the queue.
    while (admissions_in_flight_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    // 4. Raise drain: workers empty the queue and exit on empty.
    drain_.store(true, std::memory_order_seq_cst);
    {
      MutexLock lock(park_mutex_);
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    state_.store(kStopped, std::memory_order_seq_cst);
  });
}

ServeStats QueryService::stats() const {
  ServeStats out;
  // order: relaxed (every load in this function) — stats() is an
  // unsynchronized gauge snapshot by contract: each counter is
  // individually coherent, cross-counter consistency is not promised
  // (see ServeStats). Tests that want exact totals quiesce first.
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.flushes_on_size = flushes_on_size_.load(std::memory_order_relaxed);
  out.flushes_on_window = flushes_on_window_.load(std::memory_order_relaxed);
  out.swaps = swaps_.load(std::memory_order_relaxed);
  out.ingest_batches = ingest_batches_.load(std::memory_order_relaxed);
  out.ingested_points = ingested_points_.load(std::memory_order_relaxed);
  out.erased_ids = erased_ids_.load(std::memory_order_relaxed);
  out.batch_size_log2.resize(kBatchBuckets);
  for (std::size_t b = 0; b < kBatchBuckets; ++b) {
    out.batch_size_log2[b] = batch_size_log2_[b].load(
        std::memory_order_relaxed);
  }
  out.mean_batch_size =
      out.batches == 0
          ? 0.0
          : static_cast<double>(
                batched_requests_.load(std::memory_order_relaxed)) /
                static_cast<double>(out.batches);
  out.latency = latency_.summary();
  out.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
  out.current_queue_depth = depth_.load(std::memory_order_relaxed);
  const double elapsed_ns = static_cast<double>(
      last_completion_ns_.load(std::memory_order_relaxed));
  out.elapsed_seconds = elapsed_ns / 1e9;
  out.qps = elapsed_ns > 0.0
                ? static_cast<double>(out.completed) / (elapsed_ns / 1e9)
                : 0.0;
  return out;
}

}  // namespace panda::serve
