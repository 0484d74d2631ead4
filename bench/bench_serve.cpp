// Serving throughput: micro-batching vs one-query-per-call dispatch.
//
// The serving frontend exists because per-request dispatch pays the
// full pool fan-out, queue handoff, and cache-cold descent for every
// query; grouping requests into hardware-friendly micro-batches
// amortizes all three (the Hybrid KNN-join observation, PAPERS.md).
// This harness measures that directly on one shared index:
//
//   closed loop — C client threads, one outstanding request each,
//     identical deterministic query streams in every mode. Modes
//     differ only in ServeConfig: max_batch=1 (one-query-per-call)
//     vs max_batch=64 (micro-batching). Equal work, equal results
//     (checksums compared), throughput ratio printed. Note: since the
//     zero-allocation hot path (DESIGN.md §9) runs micro-batches
//     inline, the per-call mode no longer pays a pool fan-out per
//     request, so on a single-core host the batching win is modest;
//     the historical >= 5x target measured the pre-hotpath dispatch
//     stack (see BENCH_hotpath.json for the absolute gains in both
//     modes).
//
//   open loop — a pacer submits at a fixed arrival rate with the
//     Reject overflow policy; reports the latency distribution and
//     shed fraction the batched service sustains.
//
//   admission microbench — the lock-free MPMC ring admission primitive
//     (parallel/mpmc_queue.hpp) vs the mutex+condvar bounded deque it
//     replaced, 4 producers against 1 consumer: what the ring saves on
//     the admission path alone.
//
//   worker sweep — closed-loop digests pinned identical across {1, 2,
//     4} workers on the one ring (the worker count is a throughput
//     knob, not a semantic one; a mismatch fails the run), then an
//     open-loop saturation run per worker count reporting
//     p50/p95/p99/p999, shed count, and the queue high-water mark.
//
// Emits BENCH_serve.json into the working directory so CI keeps a
// serving baseline alongside BENCH_seed.json.
//
// Run:  ./bench_serve [points] [clients] [requests_per_client]
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/mpmc_queue.hpp"

#include "../examples/example_args.hpp"
#include "bench_util.hpp"
#include "panda.hpp"

namespace {

using panda::core::Neighbor;

struct LoopResult {
  double seconds = 0.0;
  double qps = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t checksum = 0;
  panda::serve::ServeStats stats;
};

/// Order-independent result digest: per-client sequential FNV folded
/// with a commutative sum across clients, so any interleaving of equal
/// per-request answers produces the same value.
std::uint64_t fold_result(std::uint64_t hash,
                          const panda::serve::Result& result) {
  for (const Neighbor& nb : result) {
    hash = (hash ^ nb.id) * 1099511628211ull;
  }
  return hash;
}

LoopResult run_closed_loop(
    const std::shared_ptr<panda::serve::Backend>& backend,
    const panda::serve::ServeConfig& config,
    const std::vector<std::vector<std::vector<float>>>& streams,
    std::size_t k) {
  panda::serve::QueryService service(backend, config);
  const int clients = static_cast<int>(streams.size());
  std::atomic<std::uint64_t> checksum{0};
  panda::WallTimer watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto& stream = streams[static_cast<std::size_t>(c)];
      std::uint64_t local = 1469598103934665603ull;
      for (const auto& q : stream) {
        const auto result =
            service.submit(panda::serve::Request::knn(q, k)).get();
        local = fold_result(local, result);
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  LoopResult out;
  out.seconds = watch.seconds();
  out.checksum = checksum.load();
  for (const auto& stream : streams) out.requests += stream.size();
  out.qps = static_cast<double>(out.requests) / out.seconds;
  out.stats = service.stats();
  return out;
}

LoopResult run_open_loop(
    const std::shared_ptr<panda::serve::Backend>& backend,
    panda::serve::ServeConfig config, double rate_qps,
    const std::vector<std::vector<float>>& queries, std::size_t k) {
  config.overflow = panda::serve::ServeConfig::Overflow::Reject;
  panda::serve::QueryService service(backend, config);
  std::vector<std::future<panda::serve::Result>> futures;
  futures.reserve(queries.size());
  const auto interval = std::chrono::duration<double>(1.0 / rate_qps);
  const auto start = std::chrono::steady_clock::now();
  panda::WallTimer watch;
  for (std::size_t j = 0; j < queries.size(); ++j) {
    std::this_thread::sleep_until(
        start + interval * static_cast<double>(j));
    futures.push_back(
        service.submit(panda::serve::Request::knn(queries[j], k)));
  }
  std::uint64_t answered = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++answered;
    } catch (const panda::Error&) {
      // shed by backpressure — counted in stats.rejected
    }
  }
  LoopResult out;
  out.seconds = watch.seconds();
  out.requests = answered;
  out.qps = static_cast<double>(answered) / out.seconds;
  out.stats = service.stats();
  return out;
}

void print_latency(const char* label,
                   const panda::serve::LatencySummary& latency) {
  std::printf("%-26s p50 %8.0f us   p95 %8.0f us   p99 %8.0f us   "
              "p999 %8.0f us   max %8.0f us\n",
              label, latency.p50_us, latency.p95_us, latency.p99_us,
              latency.p999_us, latency.max_us);
}

// -------------------------------------------------------------------
// Admission microbench: the service's lock-free MPMC ring vs the
// mutex+condvar bounded deque QueryService once used for admission.
// Same shape in both: kAdmissionProducers producer threads spinning
// tokens into a bounded queue of kAdmissionCapacity, one consumer
// draining it (one worker on the ring).
// -------------------------------------------------------------------

constexpr int kAdmissionProducers = 4;
constexpr std::size_t kAdmissionCapacity = 1024;

double admission_mpmc_qps(std::uint64_t per_producer) {
  panda::parallel::MpmcQueue<std::uint64_t> queue(kAdmissionCapacity);
  const std::uint64_t total =
      static_cast<std::uint64_t>(kAdmissionProducers) * per_producer;
  std::atomic<std::uint64_t> popped{0};
  panda::WallTimer watch;
  std::thread consumer([&] {
    std::uint64_t value = 0;
    unsigned spins = 0;
    while (popped.load(std::memory_order_relaxed) < total) {
      if (queue.try_pop(value)) {
        popped.fetch_add(1, std::memory_order_relaxed);
        spins = 0;
      } else {
        panda::parallel::spin_backoff(spins);
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kAdmissionProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        std::uint64_t token =
            static_cast<std::uint64_t>(p) * per_producer + i;
        unsigned spins = 0;
        while (!queue.try_push(std::move(token))) {
          panda::parallel::spin_backoff(spins);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  return static_cast<double>(total) / watch.seconds();
}

double admission_mutex_qps(std::uint64_t per_producer) {
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable space_cv;
  std::deque<std::uint64_t> queue;
  const std::uint64_t total =
      static_cast<std::uint64_t>(kAdmissionProducers) * per_producer;
  panda::WallTimer watch;
  std::thread consumer([&] {
    for (std::uint64_t seen = 0; seen < total; ++seen) {
      std::unique_lock<std::mutex> lock(mutex);
      work_cv.wait(lock, [&] { return !queue.empty(); });
      queue.pop_front();
      lock.unlock();
      space_cv.notify_one();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kAdmissionProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        std::unique_lock<std::mutex> lock(mutex);
        space_cv.wait(lock,
                      [&] { return queue.size() < kAdmissionCapacity; });
        queue.push_back(static_cast<std::uint64_t>(p) * per_producer + i);
        lock.unlock();
        work_cv.notify_one();
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  return static_cast<double>(total) / watch.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace panda;
  std::uint64_t n = 100000;
  int clients = 64;
  int per_client = 100;
  const bool parsed =
      argc <= 4 && (argc <= 1 || examples::parse_u64(argv[1], n)) &&
      (argc <= 2 || examples::parse_int(argv[2], clients)) &&
      (argc <= 3 || examples::parse_int(argv[3], per_client));
  if (!parsed || n == 0 || clients < 1 || per_client < 1) {
    std::fprintf(stderr,
                 "usage: bench_serve [points>0] [clients>=1] "
                 "[requests_per_client>=1]\n");
    return 1;
  }
  const std::size_t k = 5;

  bench::print_header(
      "bench_serve — micro-batched serving vs one-query-per-call",
      "the serving layer (DESIGN.md §8); batching motivation per "
      "PAPERS.md (Hybrid KNN-join, ParlayANN)");

  const auto gen = data::make_generator("cosmo", bench::kDataSeed);
  const data::PointSet points = gen->generate_all(n);
  auto pool = std::make_shared<parallel::ThreadPool>(8);
  IndexOptions index_options;
  index_options.pool = pool;
  auto backend = std::make_shared<serve::IndexBackend>(
      panda::Index::build(points, index_options));
  std::printf("index: %s cosmo points, k=%zu, serving pool of %d "
              "threads\n",
              bench::human_count(n).c_str(), k, pool->size());

  // Deterministic per-client query streams, identical in every mode.
  const auto qgen = data::make_generator("cosmo", bench::kQuerySeed);
  std::vector<std::vector<std::vector<float>>> streams(
      static_cast<std::size_t>(clients));
  {
    data::PointSet q_all(qgen->dims());
    const std::uint64_t total =
        static_cast<std::uint64_t>(clients) *
        static_cast<std::uint64_t>(per_client);
    qgen->generate(n, n + total, q_all);
    std::uint64_t next = 0;
    for (int c = 0; c < clients; ++c) {
      auto& stream = streams[static_cast<std::size_t>(c)];
      stream.resize(static_cast<std::size_t>(per_client));
      for (int j = 0; j < per_client; ++j) {
        stream[static_cast<std::size_t>(j)].resize(qgen->dims());
        q_all.copy_point(next++,
                         stream[static_cast<std::size_t>(j)].data());
      }
    }
  }

  serve::ServeConfig per_call;
  per_call.max_batch = 1;
  serve::ServeConfig batched;
  batched.max_batch = 64;

  // Warm-up (first-touch of the packed tree), untimed.
  {
    serve::QueryService warm(backend, batched);
    for (int j = 0; j < 32; ++j) {
      warm.submit(serve::Request::knn(streams[0][0], k)).get();
    }
  }

  const LoopResult naive = run_closed_loop(backend, per_call, streams, k);
  const LoopResult micro = run_closed_loop(backend, batched, streams, k);

  // Correctness: identical work must produce identical digests, and a
  // sample must match the brute-force oracle.
  const bool checksums_match = naive.checksum == micro.checksum;
  std::uint64_t oracle_checked = 0;
  bool oracle_ok = true;
  {
    serve::QueryService service(backend, batched);
    for (int c = 0; c < clients; c += std::max(1, clients / 4)) {
      const auto& q = streams[static_cast<std::size_t>(c)][0];
      const auto got = service.submit(serve::Request::knn(q, k)).get();
      if (got != baselines::brute_force_knn(points, q, k)) oracle_ok = false;
      ++oracle_checked;
    }
  }

  bench::print_rule();
  std::printf("%-26s %10s %12s %12s %16s\n", "closed loop", "time(s)",
              "qps", "batches", "mean batch size");
  std::printf("%-26s %10.3f %12.0f %12" PRIu64 " %16.1f\n",
              "one-query-per-call", naive.seconds, naive.qps,
              naive.stats.batches, naive.stats.mean_batch_size);
  std::printf("%-26s %10.3f %12.0f %12" PRIu64 " %16.1f\n",
              "micro-batched (<=64)", micro.seconds, micro.qps,
              micro.stats.batches, micro.stats.mean_batch_size);
  print_latency("  per-call latency", naive.stats.latency);
  print_latency("  batched latency", micro.stats.latency);
  std::printf("result digests: %s (0x%016" PRIx64 "), oracle sample: "
              "%" PRIu64 "/%" PRIu64 " exact\n",
              checksums_match ? "identical" : "MISMATCH", micro.checksum,
              oracle_ok ? oracle_checked : 0, oracle_checked);

  const double speedup = micro.qps / naive.qps;
  std::printf("closed-loop throughput: %.1fx micro-batching win "
              "(both modes allocation-free per DESIGN.md §9; the "
              "historical >= 5x target measured the pre-hotpath "
              "dispatch stack)\n",
              speedup);

  // Open loop at ~60 % of the batched closed-loop capacity.
  const double rate = 0.6 * micro.qps;
  std::vector<std::vector<float>> open_queries;
  for (const auto& stream : streams) {
    for (const auto& q : stream) {
      open_queries.push_back(q);
      if (open_queries.size() >= 2000) break;
    }
    if (open_queries.size() >= 2000) break;
  }
  const LoopResult open = run_open_loop(backend, batched, rate,
                                        open_queries, k);
  bench::print_rule();
  std::printf("open loop @ %.0f qps offered: answered %" PRIu64
              "/%zu (shed %" PRIu64 ")\n",
              rate, open.requests, open_queries.size(),
              open.stats.rejected);
  print_latency("  open-loop latency", open.stats.latency);

  // ---- Admission microbench. ----
  bench::print_rule();
  const std::uint64_t admission_per_producer = 200000;
  const double mpmc_qps = admission_mpmc_qps(admission_per_producer);
  const double mutex_qps = admission_mutex_qps(admission_per_producer);
  const double admission_ratio = mpmc_qps / mutex_qps;
  std::printf("admission microbench (%d producers, 1 consumer, "
              "capacity %zu):\n",
              kAdmissionProducers, kAdmissionCapacity);
  std::printf("  mpmc ring        %12.0f tokens/s\n", mpmc_qps);
  std::printf("  mutex+condvar    %12.0f tokens/s\n", mutex_qps);
  std::printf("  ratio            %12.1fx lock-free win\n", admission_ratio);

  // ---- Worker sweep: digests pinned across {1,2,4} workers on the
  // ring, then an open-loop saturation run per worker count. ----
  const int worker_counts[] = {1, 2, 4};
  bool worker_digests_match = true;
  LoopResult sweep_closed[3];
  LoopResult sweep_open[3];
  serve::ServeConfig saturate = batched;
  saturate.queue_capacity = 256;  // small enough that backpressure engages
  const double offered = 1.5 * micro.qps;  // past capacity on purpose
  for (std::size_t w = 0; w < 3; ++w) {
    serve::ServeConfig config = batched;
    config.workers = worker_counts[w];
    sweep_closed[w] = run_closed_loop(backend, config, streams, k);
    if (sweep_closed[w].checksum != micro.checksum) {
      worker_digests_match = false;
    }
    saturate.workers = worker_counts[w];
    sweep_open[w] = run_open_loop(backend, saturate, offered,
                                  open_queries, k);
  }
  bench::print_rule();
  std::printf("worker sweep (closed-loop digests %s; open loop @ %.0f "
              "qps offered, capacity %zu):\n",
              worker_digests_match ? "identical" : "MISMATCH", offered,
              saturate.queue_capacity);
  for (std::size_t w = 0; w < 3; ++w) {
    const serve::ServeStats& stats = sweep_open[w].stats;
    std::printf("  workers=%d  closed %9.0f qps | open answered %5" PRIu64
                "/%zu shed %5" PRIu64 " | max depth %" PRIu64 "\n",
                worker_counts[w], sweep_closed[w].qps,
                sweep_open[w].requests, open_queries.size(),
                stats.rejected, stats.max_queue_depth);
    char label[64];
    std::snprintf(label, sizeof label, "    workers=%d latency",
                  worker_counts[w]);
    print_latency(label, stats.latency);
  }

  FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json,
                 "  \"context\": {\"points\": %" PRIu64
                 ", \"clients\": %d, \"requests_per_client\": %d, "
                 "\"k\": %zu, \"pool_threads\": %d, \"host_cores\": %u},\n",
                 n, clients, per_client, k, pool->size(),
                 std::thread::hardware_concurrency());
    const auto emit_loop = [&](const char* name, const LoopResult& r,
                               const char* tail) {
      std::fprintf(json,
                   "  \"%s\": {\"seconds\": %.6f, \"qps\": %.1f, "
                   "\"requests\": %" PRIu64 ", \"batches\": %" PRIu64
                   ", \"mean_batch_size\": %.2f, \"rejected\": %" PRIu64
                   ", \"p50_us\": %.1f, \"p95_us\": %.1f, "
                   "\"p99_us\": %.1f, \"p999_us\": %.1f, "
                   "\"max_us\": %.1f}%s\n",
                   name, r.seconds, r.qps, r.requests, r.stats.batches,
                   r.stats.mean_batch_size, r.stats.rejected,
                   r.stats.latency.p50_us, r.stats.latency.p95_us,
                   r.stats.latency.p99_us, r.stats.latency.p999_us,
                   r.stats.latency.max_us, tail);
    };
    emit_loop("closed_loop_per_call", naive, ",");
    emit_loop("closed_loop_batched", micro, ",");
    std::fprintf(json,
                 "  \"closed_loop_speedup\": %.2f,\n"
                 "  \"checksums_match\": %s,\n"
                 "  \"oracle_sample_exact\": %s,\n",
                 speedup, checksums_match ? "true" : "false",
                 oracle_ok ? "true" : "false");
    emit_loop("open_loop_batched", open, ",");
    std::fprintf(json,
                 "  \"admission\": {\"producers\": %d, \"consumers\": 1, "
                 "\"capacity\": %zu, \"tokens_per_producer\": %" PRIu64
                 ", \"mpmc_tokens_per_sec\": %.0f, "
                 "\"mutex_condvar_tokens_per_sec\": %.0f, "
                 "\"ratio\": %.2f, \"gate_min_ratio\": 4.0},\n",
                 kAdmissionProducers, kAdmissionCapacity,
                 admission_per_producer, mpmc_qps, mutex_qps,
                 admission_ratio);
    std::fprintf(json, "  \"digests_match_across_workers\": %s,\n",
                 worker_digests_match ? "true" : "false");
    std::fprintf(json, "  \"worker_sweep\": [\n");
    for (std::size_t w = 0; w < 3; ++w) {
      const serve::ServeStats& stats = sweep_open[w].stats;
      std::fprintf(json,
                   "    {\"workers\": %d, \"closed_qps\": %.0f, "
                   "\"digest\": \"0x%016" PRIx64 "\", "
                   "\"open_offered_qps\": %.0f, \"open_answered\": %" PRIu64
                   ", \"open_shed\": %" PRIu64 ", \"p50_us\": %.1f, "
                   "\"p95_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
                   "\"max_us\": %.1f, \"max_queue_depth\": %" PRIu64 "}%s\n",
                   worker_counts[w], sweep_closed[w].qps,
                   sweep_closed[w].checksum, offered,
                   sweep_open[w].requests, stats.rejected,
                   stats.latency.p50_us, stats.latency.p95_us,
                   stats.latency.p99_us, stats.latency.p999_us,
                   stats.latency.max_us, stats.max_queue_depth,
                   w + 1 < 3 ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_serve.json\n");
  }

  return checksums_match && oracle_ok && worker_digests_match ? 0 : 1;
}
