// Serving-side accounting: throughput, completion-latency quantiles,
// queue depth, and the micro-batch size distribution (DESIGN.md §8).
//
// All hot-path recording is lock-free — atomic counters and an atomic
// geometric histogram — so many service workers and client threads can
// record concurrently without a shared lock (the serving analogue of
// the per-thread QueryStats used by the batch kernels). stats() takes
// a consistent-enough snapshot for reporting; it is not a linearizable
// point-in-time view and does not need to be.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace panda::serve {

/// Completion-latency quantiles in microseconds. Quantiles are read
/// from a geometric histogram (~19 % bucket resolution), which is the
/// right fidelity for p50/p95/p99/p999 dashboards; mean and max are
/// exact.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;  // the tail the saturation bench watches
  double max_us = 0.0;
};

/// Lock-free geometric histogram of microsecond latencies: bucket b
/// covers [kGrowth^b, kGrowth^(b+1)) with kGrowth = 2^(1/4), spanning
/// ~1 µs to ~16 s. record() is wait-free (one relaxed fetch_add plus a
/// CAS-free max update); summary() interpolates quantiles at bucket
/// geometric midpoints.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 96;

  void record(double micros);
  LatencySummary summary() const;
  std::uint64_t count() const {
    // order: relaxed — monotone stats counter; readers tolerate lag.
    return count_.load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_tenth_us_{0};  // exact mean, 0.1 µs units
  std::atomic<std::uint64_t> max_tenth_us_{0};
};

/// Snapshot of a QueryService's counters, returned by
/// QueryService::stats(). Plain values — safe to copy, print, diff.
struct ServeStats {
  // Admission into the one bounded MPMC ring (DESIGN.md §8).
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // bounded-queue rejects (Overflow::Reject)
  std::uint64_t completed = 0;  // promises fulfilled with a result
  std::uint64_t failed = 0;     // promises completed with an exception
  std::uint64_t max_queue_depth = 0;      // high-water mark
  std::uint64_t current_queue_depth = 0;  // live depth

  // Micro-batching: a worker takes what is queued, up to max_batch.
  std::uint64_t batches = 0;
  std::uint64_t flushes_on_size = 0;  // batch reached max_batch
  /// Batches closed because the queue ran empty below max_batch
  /// (perfbench's serve.flush_window_frac reads it under this name).
  std::uint64_t flushes_on_window = 0;
  /// batch_size_log2[b] counts batches with size in [2^b, 2^(b+1)).
  std::vector<std::uint64_t> batch_size_log2;
  double mean_batch_size = 0.0;

  // Index snapshot swaps observed (rebuild-behind-traffic).
  std::uint64_t swaps = 0;

  // Live-update ingest path (mutable backends, DESIGN.md §12).
  std::uint64_t ingest_batches = 0;
  std::uint64_t ingested_points = 0;
  std::uint64_t erased_ids = 0;

  // Latency and throughput. qps is completed requests divided by the
  // time from service start to the most recent completion — a
  // sustained-traffic number, not diluted by trailing idle time.
  LatencySummary latency;
  double elapsed_seconds = 0.0;
  double qps = 0.0;
};

}  // namespace panda::serve
