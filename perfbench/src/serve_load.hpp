// Load generation against serve::QueryService: an open loop at a fixed
// rate, a closed loop with a fixed number of requests outstanding, and a
// fixed-rate insert/erase stream through QueryService::ingest/erase_ids
// beside either. Every latency is a raw sample kept by the harness;
// percentiles come from sorting those samples, never from the service's
// bucketed histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "data/point_set.hpp"
#include "serve/backend.hpp"
#include "serve/query_service.hpp"

namespace perfbench {

/// Benchmark-side Backend decorator: times every run_batch of the
/// wrapped IndexBackend and every ingest / erase_ids it forwards. One
/// service worker calls run_batch; the load generator thread calls the
/// writes, so each log has a single writer.
class TimedBackend final : public panda::serve::Backend {
 public:
  struct Batch {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t size = 0;
  };

  TimedBackend(std::shared_ptr<panda::serve::Backend> inner,
               std::size_t max_batches);

  std::size_t dims() const override { return inner_->dims(); }
  std::uint64_t size() const override { return inner_->size(); }
  void run_batch(std::span<const panda::serve::Request> batch,
                 std::vector<panda::serve::Result>& results) override;
  bool mutable_index() const override { return inner_->mutable_index(); }
  void ingest(const panda::data::PointSet& points) override;
  std::size_t erase_ids(std::span<const std::uint64_t> ids) override;

  /// Batches logged so far (acquire: entries below it are complete).
  std::size_t batches() const {
    return logged_.load(std::memory_order_acquire);
  }
  const Batch& batch(std::size_t i) const { return log_[i]; }
  /// Write-call durations in ms, in call order.
  const std::vector<double>& insert_ms() const { return insert_ms_; }
  const std::vector<double>& erase_ms() const { return erase_ms_; }

 private:
  std::shared_ptr<panda::serve::Backend> inner_;
  std::vector<Batch> log_;
  std::atomic<std::size_t> logged_{0};
  std::vector<double> insert_ms_;
  std::vector<double> erase_ms_;
};

/// The pre-built write stream: insert batches of fresh points and, with
/// each, a batch of seed ids to erase. The harness tracks the live set
/// itself so the final check can build an independent oracle.
class WriteStream {
 public:
  WriteStream(const panda::data::PointSet& fresh,
              const panda::data::PointSet& seed);

  std::size_t batches_available() const { return inserts_.size(); }
  std::size_t applied() const { return next_; }
  /// Applies the next batch through the service, ingest then
  /// erase_ids; returns when ingest returned (trace clock).
  std::int64_t apply_next(panda::serve::QueryService& service);
  /// The live set after the applied batches: seed minus erased plus
  /// inserted, ascending by id.
  panda::data::PointSet live_points() const;

 private:
  const panda::data::PointSet& seed_;
  std::vector<panda::data::PointSet> inserts_;
  std::vector<std::vector<std::uint64_t>> erases_;
  std::size_t next_ = 0;
};

/// Write stream shape: 256-point insert batches, each with erases of
/// 1/8 as many seed ids.
inline constexpr std::size_t kWriteBatch = 256;
inline constexpr std::size_t kEraseDivisor = 8;
/// Every 4th request is a radius request: the 3:1 KNN:radius mix.
inline constexpr std::size_t kRadiusEvery = 4;

struct LoadConfig {
  /// Metric radius of the radius requests (KNN requests use k = kKnnK).
  float radius = 0.0f;
  /// Write batches per second beside the reads (0 = no writes).
  double write_batches_per_s = 0.0;
};

/// Raw samples of one load phase.
struct PhaseResult {
  std::vector<double> latency_ms;  // completed requests only
  std::vector<double> late_ms;     // open loop: submit time - due time
  std::vector<double> ingest_ms;   // write batch due time -> ingest return
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  double seconds = 0.0;
  /// Closed loop: requests completed inside the phase window.
  std::uint64_t completed_in_window = 0;
  /// Accepted requests in submission order: due (open loop) or submit
  /// (closed loop) time, and completion time, on the trace clock.
  std::vector<std::int64_t> request_due_ns;
  std::vector<std::int64_t> request_done_ns;
};

class LoadGenerator {
 public:
  LoadGenerator(panda::serve::QueryService& service,
                const panda::data::PointSet& query_pool,
                const LoadConfig& config, WriteStream* writes);

  /// Open loop: request i is due at start + i / rate, for
  /// round(rate * seconds) requests; latency runs from the due time.
  PhaseResult open_loop(double rate, double seconds, bool writes);
  /// Closed loop: `outstanding` requests in flight for `seconds`.
  PhaseResult closed_loop(int outstanding, double seconds, bool writes);

 private:
  panda::serve::Request make_request(std::uint64_t i) const;

  panda::serve::QueryService& service_;
  const panda::data::PointSet& pool_;
  LoadConfig config_;
  WriteStream* writes_;
  std::uint64_t next_request_ = 0;
};

/// Records serve spans for a finished phase: one "serve.request" span
/// per accepted request (due time to completion) with a child
/// "serve.execute" span covering the batch that answered it. Needs one
/// shard, one worker and one submitting thread, so batches take
/// requests in submission order; returns false when the batch log does
/// not add up to the requests (nothing is recorded then).
bool trace_requests(const PhaseResult& phase, const TimedBackend& backend,
                    std::size_t first_batch, std::uint64_t parent,
                    std::int64_t first_request_id);

/// With the write stream stopped: sends a fixed sample of requests from
/// `pool` (the 3:1 mix) through the service and checks every
/// answer against the brute-force engine over `live`, id- and
/// dist²-exact; folds the answers into `digest`.
void check_service(panda::serve::QueryService& service,
                   const panda::data::PointSet& live,
                   const panda::data::PointSet& pool, const LoadConfig& config,
                   Outcome& outcome, Digest& digest);

}  // namespace perfbench
