// The serving frontend (src/serve): concurrent mixed-kind clients
// pinned id-exact against the brute-force oracle, mid-traffic index
// snapshot swaps, how workers form batches from what is queued (size /
// empty queue / shutdown drain), bounded-queue backpressure in both
// overflow policies, refusal of non-finite queries, the distributed
// backend, and the latency histogram. Tests that need requests to pile
// up hold the worker inside StallBackend instead of waiting on time.
// The concurrency tests here are the ones ci.sh tsan runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "baselines/brute_force.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "data/point_set.hpp"
#include "serve/backend.hpp"
#include "serve/query_service.hpp"
#include "serve/serve_stats.hpp"

namespace panda::serve {
namespace {

using core::Neighbor;

// ---------------------------------------------------------------------
// Oracles and fixtures
// ---------------------------------------------------------------------

/// All neighbors with dist² < r², ascending (dist², id) — the radius
/// oracle via the exhaustive KNN oracle (k = n returns every point
/// sorted; the strict-radius prefix is the radius answer).
Result oracle_radius(const data::PointSet& points, std::span<const float> q,
                     float radius) {
  Result all = baselines::brute_force_knn(points, q, points.size());
  const float r2 = radius * radius;
  std::size_t keep = 0;
  while (keep < all.size() && all[keep].dist2 < r2) ++keep;
  all.resize(keep);
  return all;
}

Result oracle_for(const data::PointSet& points, const Request& request) {
  if (request.kind == Request::Kind::Knn) {
    return baselines::brute_force_knn(points, request.query, request.k);
  }
  return oracle_radius(points, request.query, request.radius);
}

struct Fixture {
  data::PointSet points;
  std::shared_ptr<parallel::ThreadPool> pool;
  std::shared_ptr<IndexBackend> backend;
};

Fixture make_fixture(const std::string& generator, std::uint64_t n,
                     std::uint64_t seed, int pool_threads = 2) {
  Fixture f;
  const auto gen = data::make_generator(generator, seed);
  f.points = gen->generate_all(n);
  f.pool = std::make_shared<parallel::ThreadPool>(pool_threads);
  IndexOptions options;
  options.pool = f.pool;
  f.backend = std::make_shared<IndexBackend>(
      panda::Index::build(f.points, options));
  return f;
}

std::vector<float> query_point(const data::Generator& gen,
                               std::uint64_t id) {
  data::PointSet one(gen.dims());
  gen.generate(id, id + 1, one);
  std::vector<float> q(gen.dims());
  one.copy_point(0, q.data());
  return q;
}

/// Test backend that blocks inside run_batch until released — makes
/// queue buildup (batching, backpressure) deterministic — and records
/// the query points of every batch in the order batches entered.
class StallBackend final : public Backend {
 public:
  using Batch = std::vector<std::vector<float>>;

  explicit StallBackend(std::shared_ptr<Backend> inner)
      : inner_(std::move(inner)) {}

  std::size_t dims() const override { return inner_->dims(); }
  std::uint64_t size() const override { return inner_->size(); }

  void run_batch(std::span<const Request> batch,
                 std::vector<Result>& results) override {
    std::unique_lock<std::mutex> lock(mutex_);
    Batch& seen = batches_.emplace_back();
    for (const Request& request : batch) seen.push_back(request.query);
    ++entered_;
    entered_cv_.notify_all();
    gate_cv_.wait(lock, [&] { return open_; });
    lock.unlock();
    inner_->run_batch(batch, results);
  }

  /// Blocks until run_batch has been entered `count` times in total.
  void wait_entered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    gate_cv_.notify_all();
  }

  std::vector<Batch> batches() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }

 private:
  std::shared_ptr<Backend> inner_;
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable gate_cv_;
  std::vector<Batch> batches_;
  int entered_ = 0;
  bool open_ = false;
};

/// Submits `query` until a concurrent shutdown() closes admission and
/// returns the futures of the requests admitted meanwhile. Under
/// Overflow::Block a full queue parks the submitter instead of failing
/// it, so the throw that ends the loop always means admission closed.
std::vector<std::future<Result>> submit_until_closed(
    QueryService& service, const std::vector<float>& query, std::size_t k) {
  std::vector<std::future<Result>> admitted;
  for (;;) {
    try {
      admitted.push_back(service.submit(Request::knn(query, k)));
    } catch (const panda::Error&) {
      return admitted;
    }
  }
}

// ---------------------------------------------------------------------
// Concurrent correctness
// ---------------------------------------------------------------------

TEST(Serve, MixedConcurrentClientsAgreeWithOracle) {
  const std::uint64_t n = 3000;
  Fixture f = make_fixture("gmm", n, 42);
  const auto qgen = data::make_generator("gmm", 42);

  ServeConfig config;
  config.max_batch = 16;
  config.workers = 2;
  QueryService service(f.backend, config);

  const int clients = 6;
  const int per_client = 40;
  std::vector<std::vector<Request>> sent(clients);
  std::vector<std::vector<Result>> got(clients);
  std::vector<std::thread> threads;
  const float radii[3] = {0.02f, 0.05f, 0.1f};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int j = 0; j < per_client; ++j) {
        // Query ids disjoint from the indexed [0, n) block.
        auto q = query_point(*qgen, n + static_cast<std::uint64_t>(
                                            c * per_client + j));
        Request request =
            (j % 2 == 0)
                ? Request::knn(std::move(q),
                               1 + static_cast<std::size_t>(j % 7))
                : Request::radius_search(std::move(q), radii[j % 3]);
        sent[static_cast<std::size_t>(c)].push_back(request);
        got[static_cast<std::size_t>(c)].push_back(
            service.submit(std::move(request)).get());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < clients; ++c) {
    for (int j = 0; j < per_client; ++j) {
      const auto& request = sent[static_cast<std::size_t>(c)]
                                [static_cast<std::size_t>(j)];
      EXPECT_EQ(got[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)],
                oracle_for(f.points, request))
          << "client " << c << " request " << j;
    }
  }

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(clients * per_client));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.mean_batch_size, 0.0);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_EQ(stats.latency.count, stats.completed);
  EXPECT_LE(stats.latency.p50_us, stats.latency.p99_us);
}

// Mixed k values inside one batch exercise the k_max-then-truncate
// normalization; duplicate-heavy data makes any tie-order slip show up
// as an id mismatch. The worker is held on the first request while the
// other 24 queue, so they run as three full batches of mixed k.
TEST(Serve, TieHeavyMixedKBatchesStayIdExact) {
  const std::uint64_t n = 1200;
  Fixture f = make_fixture("dupes", n, 7);
  auto stall = std::make_shared<StallBackend>(f.backend);
  const auto qgen = data::make_generator("dupes", 7);

  ServeConfig config;
  config.max_batch = 8;
  QueryService service(stall, config);

  std::vector<Request> sent;
  std::vector<std::future<Result>> futures;
  for (int j = 0; j < 25; ++j) {
    auto q = query_point(*qgen, n + static_cast<std::uint64_t>(j));
    Request request =
        Request::knn(std::move(q), 1 + static_cast<std::size_t>(j % 8));
    sent.push_back(request);
    futures.push_back(service.submit(std::move(request)));
    if (j == 0) stall->wait_entered(1);
  }
  stall->open();
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(), oracle_for(f.points, sent[j])) << j;
  }
  std::vector<std::size_t> sizes;
  for (const auto& batch : stall->batches()) sizes.push_back(batch.size());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 8, 8, 8}));
}

// ---------------------------------------------------------------------
// Snapshot swap (rebuild-behind-traffic)
// ---------------------------------------------------------------------

TEST(Serve, MidTrafficSwapServesExactlyOneSnapshotPerRequest) {
  constexpr std::uint64_t kIdOffset = 1000000;
  const std::uint64_t n = 2000;
  const auto gen_a = data::make_generator("gmm", 1);
  const auto gen_b = data::make_generator("gmm", 2);
  const data::PointSet points_a = gen_a->generate_all(n);
  data::PointSet points_b = gen_b->generate_all(n);
  // Offset B's ids so every answer identifies its snapshot.
  for (std::uint64_t i = 0; i < points_b.size(); ++i) {
    points_b.set_id(i, points_b.id(i) + kIdOffset);
  }

  auto pool = std::make_shared<parallel::ThreadPool>(2);
  IndexOptions options;
  options.pool = pool;  // successive snapshots share one thread team
  auto backend_a = std::make_shared<IndexBackend>(
      panda::Index::build(points_a, options));
  auto backend_b = std::make_shared<IndexBackend>(
      panda::Index::build(points_b, options));
  std::weak_ptr<IndexBackend> watch_a = backend_a;

  ServeConfig config;
  config.max_batch = 8;
  config.workers = 2;
  QueryService service(backend_a, config);
  backend_a.reset();  // the service (and in-flight batches) own it now

  const auto qgen = data::make_generator("gmm", 3);
  const int clients = 4;
  const std::size_t k = 3;
  std::vector<std::vector<std::pair<std::size_t, Result>>> got(clients);
  std::vector<std::vector<float>> queries;
  for (std::uint64_t j = 0; j < 32; ++j) queries.push_back(
      query_point(*qgen, 5000 + j));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t j = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t qi = j % queries.size();
        got[static_cast<std::size_t>(c)].emplace_back(
            qi, service.submit(Request::knn(queries[qi], k)).get());
        ++j;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.swap_backend(backend_b);
  // Requests admitted from here on must be answered by B.
  const Result post_swap =
      service.submit(Request::knn(queries[0], k)).get();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& t : threads) t.join();

  // Every response matches exactly one snapshot's oracle — never a
  // blend, never a torn index.
  std::vector<Result> oracle_a(queries.size());
  std::vector<Result> oracle_b(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    oracle_a[qi] = baselines::brute_force_knn(points_a, queries[qi], k);
    oracle_b[qi] = baselines::brute_force_knn(points_b, queries[qi], k);
  }
  std::uint64_t from_a = 0;
  std::uint64_t from_b = 0;
  for (int c = 0; c < clients; ++c) {
    for (const auto& [qi, result] : got[static_cast<std::size_t>(c)]) {
      ASSERT_FALSE(result.empty());
      if (result.front().id < kIdOffset) {
        EXPECT_EQ(result, oracle_a[qi]);
        ++from_a;
      } else {
        EXPECT_EQ(result, oracle_b[qi]);
        ++from_b;
      }
    }
  }
  EXPECT_GT(from_a + from_b, 0u);
  EXPECT_EQ(post_swap, oracle_b[0]);
  EXPECT_EQ(service.stats().swaps, 1u);

  // The old snapshot is released once its last in-flight batch is done.
  service.shutdown();
  EXPECT_TRUE(watch_a.expired());
}

// ---------------------------------------------------------------------
// Batch formation: a worker takes whatever is queued, up to max_batch,
// and runs it at once. Holding the worker inside StallBackend on a
// first request lets the rest queue, so every batch is exact.
// ---------------------------------------------------------------------

TEST(Serve, EmptyQueueFlushCompletesUnderfullBatches) {
  Fixture f = make_fixture("gmm", 500, 11);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 1000;  // size flush unreachable
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 11);
  std::vector<Request> sent;
  std::vector<std::future<Result>> futures;
  for (int j = 0; j < 3; ++j) {
    Request request = Request::knn(
        query_point(*qgen, 500 + static_cast<std::uint64_t>(j)), 4);
    sent.push_back(request);
    futures.push_back(service.submit(std::move(request)));
    if (j == 0) stall->wait_entered(1);
  }
  stall->open();
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(), oracle_for(f.points, sent[j])) << j;
  }
  const std::vector<StallBackend::Batch> want = {
      {sent[0].query}, {sent[1].query, sent[2].query}};
  EXPECT_EQ(stall->batches(), want);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.flushes_on_window, 2u);  // both closed on an empty queue
  EXPECT_EQ(stats.flushes_on_size, 0u);
}

// max_batch 4, the worker held on A while B..I queue: the batches are
// exactly {A}, {B..E} and {F..I} — one empty-queue flush, two size
// flushes.
TEST(Serve, SizeFlushFormsFullBatches) {
  Fixture f = make_fixture("gmm", 500, 12);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 4;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 12);
  std::vector<std::vector<float>> queries;
  std::vector<std::future<Result>> futures;
  for (std::uint64_t j = 0; j < 9; ++j) {
    queries.push_back(query_point(*qgen, 500 + j));
    futures.push_back(service.submit(Request::knn(queries.back(), 2)));
    if (j == 0) stall->wait_entered(1);
  }
  stall->open();
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(),
              baselines::brute_force_knn(f.points, queries[j], 2))
        << j;
  }
  const std::vector<StallBackend::Batch> want = {
      {queries[0]},
      {queries[1], queries[2], queries[3], queries[4]},
      {queries[5], queries[6], queries[7], queries[8]}};
  EXPECT_EQ(stall->batches(), want);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.flushes_on_size, 2u);
  EXPECT_EQ(stats.flushes_on_window, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 3.0);
  ASSERT_GT(stats.batch_size_log2.size(), 2u);
  EXPECT_EQ(stats.batch_size_log2[0], 1u);  // {A}
  EXPECT_EQ(stats.batch_size_log2[2], 2u);  // two batches of size 4
}

// shutdown() while requests are queued behind a held worker: every
// admitted request still completes, and the stopped service refuses
// new work explicitly.
TEST(Serve, ShutdownDrainsAdmittedRequests) {
  Fixture f = make_fixture("gmm", 500, 13);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 1000;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 13);
  std::vector<std::vector<float>> queries;
  std::vector<std::future<Result>> futures;
  for (std::uint64_t j = 0; j < 6; ++j) {
    queries.push_back(query_point(*qgen, 500 + j));
  }
  for (std::size_t j = 0; j < 5; ++j) {
    futures.push_back(service.submit(Request::knn(queries[j], 3)));
    if (j == 0) stall->wait_entered(1);
  }
  std::thread closer([&] { service.shutdown(); });
  std::vector<std::future<Result>> late =
      submit_until_closed(service, queries[5], 3);
  stall->open();  // admission is closed; the queue still holds B..E
  closer.join();

  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(),
              baselines::brute_force_knn(f.points, queries[j], 3))
        << j;  // drained, not dropped
  }
  const Result late_oracle =
      baselines::brute_force_knn(f.points, queries[5], 3);
  for (auto& future : late) EXPECT_EQ(future.get(), late_oracle);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u + late.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.current_queue_depth, 0u);

  // The stopped service rejects new work explicitly.
  EXPECT_THROW(service.submit(Request::knn(query_point(*qgen, 600), 1)),
               panda::Error);
  std::future<Result> unused;
  EXPECT_FALSE(
      service.try_submit(Request::knn(query_point(*qgen, 601), 1), &unused));
}

// ---------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------

TEST(Serve, RejectPolicyShedsLoadWhenQueueIsFull) {
  Fixture f = make_fixture("gmm", 400, 21, /*pool_threads=*/1);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 2;
  config.queue_capacity = 2;
  config.overflow = ServeConfig::Overflow::Reject;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 21);
  std::vector<Request> sent;
  std::vector<std::future<Result>> accepted;
  const auto submit_one = [&](std::uint64_t id) {
    Request request = Request::knn(query_point(*qgen, id), 3);
    std::future<Result> future;
    const bool ok = service.try_submit(request, &future);
    if (ok) {
      sent.push_back(std::move(request));
      accepted.push_back(std::move(future));
    }
    return ok;
  };

  ASSERT_TRUE(submit_one(1000));
  stall->wait_entered(1);  // worker now blocked inside the backend
  ASSERT_TRUE(submit_one(1001));
  ASSERT_TRUE(submit_one(1002));  // queue now at capacity 2
  EXPECT_FALSE(submit_one(1003));
  // submit() under Reject fails the future instead of the call.
  auto rejected_future =
      service.submit(Request::knn(query_point(*qgen, 1004), 3));
  EXPECT_THROW(rejected_future.get(), panda::Error);

  stall->open();
  for (std::size_t j = 0; j < accepted.size(); ++j) {
    EXPECT_EQ(accepted[j].get(), oracle_for(f.points, sent[j])) << j;
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

TEST(Serve, BlockPolicyStallsSubmittersInsteadOfShedding) {
  Fixture f = make_fixture("gmm", 400, 22, /*pool_threads=*/1);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 1;
  config.queue_capacity = 1;
  config.overflow = ServeConfig::Overflow::Block;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 22);
  auto f1 = service.submit(Request::knn(query_point(*qgen, 2000), 2));
  stall->wait_entered(1);
  auto f2 = service.submit(Request::knn(query_point(*qgen, 2001), 2));

  std::atomic<bool> third_admitted{false};
  std::future<Result> f3;
  std::thread blocked([&] {
    f3 = service.submit(Request::knn(query_point(*qgen, 2002), 2));
    third_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_admitted.load());  // queue full: submitter waits

  stall->open();
  blocked.join();
  EXPECT_TRUE(third_admitted.load());
  EXPECT_FALSE(f1.get().empty());
  EXPECT_FALSE(f2.get().empty());
  EXPECT_FALSE(f3.get().empty());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.max_queue_depth, 1u);
}

// ---------------------------------------------------------------------
// Several workers on the one ring
// ---------------------------------------------------------------------

// The worker count is a pure throughput knob: the same mixed KNN and
// radius stream must produce id-identical answers with 1, 2 or 4
// workers draining the ring.
TEST(Serve, WorkerSweepStaysIdExactAcrossWorkerCounts) {
  const std::uint64_t n = 2000;
  Fixture f = make_fixture("gmm", n, 33);
  const auto qgen = data::make_generator("gmm", 33);

  std::vector<Request> stream;
  for (int j = 0; j < 96; ++j) {
    auto q = query_point(*qgen, n + static_cast<std::uint64_t>(j));
    stream.push_back(
        (j % 3 == 2)
            ? Request::radius_search(std::move(q), 0.06f)
            : Request::knn(std::move(q), 1 + static_cast<std::size_t>(j % 5)));
  }
  std::vector<Result> oracle;
  oracle.reserve(stream.size());
  for (const Request& request : stream) {
    oracle.push_back(oracle_for(f.points, request));
  }

  for (const int workers : {1, 2, 4}) {
    ServeConfig config;
    config.max_batch = 8;
    config.workers = workers;
    QueryService service(f.backend, config);

    std::vector<std::future<Result>> futures;
    futures.reserve(stream.size());
    for (const Request& request : stream) {
      futures.push_back(service.submit(request));
    }
    for (std::size_t j = 0; j < futures.size(); ++j) {
      EXPECT_EQ(futures[j].get(), oracle[j]) << "workers=" << workers
                                             << " request " << j;
    }

    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.submitted, stream.size());
    EXPECT_EQ(stats.completed, stream.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.current_queue_depth, 0u);  // all drained
  }
}

// swap_backend is one store that every worker's next pin observes: four
// workers, each held inside the new snapshot on a batch of one, all
// answer from B, and nothing pins A once the service stops.
TEST(Serve, SwapReachesEveryWorker) {
  constexpr std::uint64_t kIdOffset = 1000000;
  const std::uint64_t n = 1000;
  const auto gen_a = data::make_generator("gmm", 51);
  const auto gen_b = data::make_generator("gmm", 52);
  const data::PointSet points_a = gen_a->generate_all(n);
  data::PointSet points_b = gen_b->generate_all(n);
  for (std::uint64_t i = 0; i < points_b.size(); ++i) {
    points_b.set_id(i, points_b.id(i) + kIdOffset);
  }

  auto pool = std::make_shared<parallel::ThreadPool>(2);
  IndexOptions options;
  options.pool = pool;
  auto backend_a = std::make_shared<IndexBackend>(
      panda::Index::build(points_a, options));
  auto stall_b = std::make_shared<StallBackend>(std::make_shared<IndexBackend>(
      panda::Index::build(points_b, options)));
  std::weak_ptr<IndexBackend> watch_a = backend_a;

  ServeConfig config;
  config.max_batch = 1;
  config.workers = 4;
  QueryService service(backend_a, config);
  backend_a.reset();

  const auto qgen = data::make_generator("gmm", 53);
  const std::size_t k = 3;
  // Warm traffic on A...
  for (std::uint64_t j = 0; j < 8; ++j) {
    const Result r =
        service.submit(Request::knn(query_point(*qgen, 7000 + j), k)).get();
    ASSERT_FALSE(r.empty());
    EXPECT_LT(r.front().id, kIdOffset);
  }
  // ...swap, then four batches of one inside B at once: one per worker.
  service.swap_backend(stall_b);
  std::vector<std::vector<float>> queries;
  std::vector<std::future<Result>> futures;
  for (std::uint64_t j = 0; j < 4; ++j) {
    queries.push_back(query_point(*qgen, 8000 + j));
    futures.push_back(service.submit(Request::knn(queries.back(), k)));
  }
  stall_b->wait_entered(4);
  stall_b->open();
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(),
              baselines::brute_force_knn(points_b, queries[j], k))
        << "request " << j;
  }
  EXPECT_EQ(service.stats().swaps, 1u);
  service.shutdown();
  EXPECT_TRUE(watch_a.expired());  // no worker still pins A
}

// Reject policy with two workers held inside the backend: each holds
// one request, the ring queues queue_capacity more, every later request
// is shed, and everything admitted completes id-exact once released.
TEST(Serve, RejectPolicyShedsBehindStalledWorkers) {
  Fixture f = make_fixture("gmm", 400, 23, /*pool_threads=*/1);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 1;
  config.queue_capacity = 2;
  config.workers = 2;
  config.overflow = ServeConfig::Overflow::Reject;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 23);
  std::vector<Request> sent;
  std::vector<std::future<Result>> accepted;
  int rejected = 0;
  for (std::uint64_t j = 0; j < 10; ++j) {
    Request request = Request::knn(query_point(*qgen, 3000 + j), 3);
    std::future<Result> future;
    if (service.try_submit(request, &future)) {
      sent.push_back(std::move(request));
      accepted.push_back(std::move(future));
    } else {
      ++rejected;
    }
    if (j == 1) stall->wait_entered(2);  // both workers hold one each
  }
  // Two held by the workers plus two queued: exactly 4 of the 10.
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(rejected, 6);

  stall->open();
  for (std::size_t j = 0; j < accepted.size(); ++j) {
    EXPECT_EQ(accepted[j].get(), oracle_for(f.points, sent[j])) << j;
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.max_queue_depth, 2u);  // the capacity bound held
}

// Block policy with two workers held and the ring full parks the
// submitter (instead of spinning the admission path) and admits it as
// soon as a worker frees space.
TEST(Serve, BlockPolicyParksBehindStalledWorkers) {
  Fixture f = make_fixture("gmm", 400, 24, /*pool_threads=*/1);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 1;
  config.queue_capacity = 2;
  config.workers = 2;
  config.overflow = ServeConfig::Overflow::Block;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 24);
  // Saturate: 2 held by the workers + 2 queued fills the service.
  std::vector<std::future<Result>> filled;
  for (std::uint64_t j = 0; j < 4; ++j) {
    filled.push_back(
        service.submit(Request::knn(query_point(*qgen, 4000 + j), 2)));
    if (j == 1) stall->wait_entered(2);
  }
  std::atomic<bool> fifth_admitted{false};
  std::future<Result> f5;
  std::thread blocked([&] {
    f5 = service.submit(Request::knn(query_point(*qgen, 4004), 2));
    fifth_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fifth_admitted.load());  // ring full: submitter parked

  stall->open();
  blocked.join();
  EXPECT_TRUE(fifth_admitted.load());
  for (auto& future : filled) EXPECT_FALSE(future.get().empty());
  EXPECT_FALSE(f5.get().empty());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

// ---------------------------------------------------------------------
// Input validation at admission
// ---------------------------------------------------------------------

// A NaN or infinite coordinate would break the (dist², id) order every
// answer is sorted by. Admission refuses such a request on its own,
// through either entry point and for either kind, and the service then
// answers a valid request exactly.
TEST(Serve, NonFiniteQueriesAreRefusedAtAdmission) {
  Fixture f = make_fixture("cosmo", 500, 31);
  ServeConfig config;
  QueryService service(f.backend, config);

  const auto qgen = data::make_generator("cosmo", 31);
  const std::vector<float> good = query_point(*qgen, 900);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (std::size_t d = 0; d < good.size(); ++d) {
      std::vector<float> q = good;
      q[d] = bad;
      for (const Request& request :
           {Request::knn(q, 5), Request::radius_search(q, 0.05f)}) {
        EXPECT_THROW(service.submit(request), panda::Error)
            << bad << " in dimension " << d;
        std::future<Result> unused;
        EXPECT_THROW(service.try_submit(request, &unused), panda::Error)
            << bad << " in dimension " << d;
        EXPECT_FALSE(unused.valid());
      }
    }
  }
  EXPECT_EQ(service.submit(Request::knn(good, 5)).get(),
            baselines::brute_force_knn(f.points, good, 5));
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// ---------------------------------------------------------------------
// Shutdown state machine
// ---------------------------------------------------------------------

TEST(Serve, ShutdownIsIdempotentAndSafeUnderConcurrentCalls) {
  Fixture f = make_fixture("gmm", 500, 25);
  auto stall = std::make_shared<StallBackend>(f.backend);
  ServeConfig config;
  config.max_batch = 4;
  config.workers = 2;
  QueryService service(stall, config);

  const auto qgen = data::make_generator("gmm", 25);
  std::vector<std::future<Result>> futures;
  for (std::uint64_t j = 0; j < 6; ++j) {
    futures.push_back(
        service.submit(Request::knn(query_point(*qgen, 500 + j), 3)));
    if (j == 0) stall->wait_entered(1);  // hold the rest back
  }

  // Three racing shutdown calls while requests are held: exactly one
  // drains, the others are no-ops that still return only after the
  // service is stopped.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] { service.shutdown(); });
  }
  std::vector<std::future<Result>> late =
      submit_until_closed(service, query_point(*qgen, 506), 3);
  stall->open();
  for (auto& t : threads) t.join();
  service.shutdown();  // and once more, sequentially

  for (auto& future : futures) EXPECT_FALSE(future.get().empty());
  for (auto& future : late) EXPECT_FALSE(future.get().empty());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 6u + late.size());
  EXPECT_EQ(stats.current_queue_depth, 0u);
  EXPECT_THROW(service.submit(Request::knn(query_point(*qgen, 900), 1)),
               panda::Error);
  // The destructor runs shutdown() yet again — must also be a no-op.
}

// ---------------------------------------------------------------------
// Distributed backend
// ---------------------------------------------------------------------

TEST(Serve, DistBackendServesMixedTrafficExactly) {
  const std::uint64_t n = 1500;
  const auto gen = data::make_generator("cosmo", 99);
  const data::PointSet points = gen->generate_all(n);

  IndexOptions options;
  options.engine = IndexOptions::Engine::Dist;
  options.cluster.ranks = 2;
  options.cluster.threads_per_rank = 1;
  auto backend =
      std::make_shared<IndexBackend>(panda::Index::build(points, options));
  EXPECT_EQ(backend->dims(), 3u);
  EXPECT_EQ(backend->size(), n);

  ServeConfig config;
  config.max_batch = 8;
  QueryService service(backend, config);

  const auto qgen = data::make_generator("cosmo", 98);
  const int clients = 2;
  const int per_client = 12;
  std::vector<std::vector<Request>> sent(clients);
  std::vector<std::vector<Result>> got(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int j = 0; j < per_client; ++j) {
        auto q = query_point(*qgen, static_cast<std::uint64_t>(
                                        3000 + c * per_client + j));
        Request request =
            (j % 3 == 2)
                ? Request::radius_search(std::move(q), 0.05f)
                : Request::knn(std::move(q),
                               1 + static_cast<std::size_t>(j % 6));
        sent[static_cast<std::size_t>(c)].push_back(request);
        got[static_cast<std::size_t>(c)].push_back(
            service.submit(std::move(request)).get());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < clients; ++c) {
    for (int j = 0; j < per_client; ++j) {
      const auto& request = sent[static_cast<std::size_t>(c)]
                                [static_cast<std::size_t>(j)];
      EXPECT_EQ(got[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)],
                oracle_for(points, request))
          << "client " << c << " request " << j;
    }
  }
}

// ---------------------------------------------------------------------
// Live updates through the service (DESIGN.md §12). These run under
// ThreadSanitizer via ci.sh tsan.
// ---------------------------------------------------------------------

/// A mutable-index fixture: Engine::Mutable with a buffer small enough
/// that the schedules below drive seals and background merges while
/// the service answers traffic.
Fixture make_mutable_fixture(std::uint64_t n, std::uint64_t seed,
                             std::size_t buffer_capacity) {
  Fixture f;
  const auto gen = data::make_generator("uniform", seed);
  f.points = gen->generate_all(n);
  f.pool = std::make_shared<parallel::ThreadPool>(2);
  IndexOptions options;
  options.pool = f.pool;
  options.engine = IndexOptions::Engine::Mutable;
  options.mutable_config.buffer_capacity = buffer_capacity;
  options.mutable_config.merge_fan_in = 2;
  f.backend = std::make_shared<IndexBackend>(
      panda::Index::build(f.points, options));
  return f;
}

TEST(ServeIngest, ImmutableBackendRejectsWritesTyped) {
  Fixture f = make_fixture("uniform", 200, 1);
  EXPECT_FALSE(f.backend->mutable_index());
  ServeConfig config;
  QueryService service(f.backend, config);

  data::PointSet fresh(f.points.dims());
  const auto gen = data::make_generator("uniform", 2);
  gen->generate(1000, 1004, fresh);
  try {
    service.ingest(fresh);
    FAIL() << "immutable backend must reject ingest";
  } catch (const panda::Error& e) {
    EXPECT_NE(std::string(e.what()).find("Engine::Mutable"),
              std::string::npos)
        << e.what();
  }
  const std::uint64_t ids[] = {1, 2};
  EXPECT_THROW((void)service.erase_ids(ids), panda::Error);

  // Rejected writes leave no trace in the counters, and reads still
  // work.
  const auto qgen = data::make_generator("uniform", 3);
  auto result =
      service.submit(Request::knn(query_point(*qgen, 555), 3)).get();
  EXPECT_EQ(result.size(), 3u);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.ingest_batches, 0u);
  EXPECT_EQ(stats.ingested_points, 0u);
  EXPECT_EQ(stats.erased_ids, 0u);

  service.shutdown();
  EXPECT_THROW(service.ingest(fresh), panda::Error);
}

TEST(ServeIngest, WritesVisibleOnReturnAndExactBehindTraffic) {
  const std::uint64_t n = 400;
  Fixture f = make_mutable_fixture(n, 11, /*buffer_capacity=*/64);
  ASSERT_TRUE(f.backend->mutable_index());
  ServeConfig config;
  config.workers = 2;
  QueryService service(f.backend, config);

  // Background clients keep the queues and merge machinery busy; their
  // answers race mutations so they are only required to complete.
  const auto qgen = data::make_generator("uniform", 12);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t j = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto q = query_point(*qgen, 5000 + c * 100 + (j++ % 64));
        (void)service.submit(Request::knn(std::move(q), 4)).get();
      }
    });
  }

  // The checked schedule: every mutation is verified oracle-exact by a
  // request submitted after the mutating call returned — the
  // visibility contract, under live traffic. `live` tracks ground
  // truth.
  const auto gen = data::make_generator("uniform", 11);
  data::PointSet live = f.points;
  std::vector<float> p(live.dims());
  std::uint64_t next_id = n;
  for (int round = 0; round < 10; ++round) {
    data::PointSet fresh(live.dims());
    gen->generate(next_id, next_id + 48, fresh);
    service.ingest(fresh);
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
      fresh.copy_point(i, p.data());
      live.push_point(p, fresh.id(i));
    }

    // Probe at the first point of the batch: itself at distance 0.
    fresh.copy_point(0, p.data());
    auto hit = service.submit(Request::knn(p, 5)).get();
    EXPECT_EQ(hit, oracle_for(live, Request::knn(p, 5)))
        << "round " << round;
    ASSERT_FALSE(hit.empty());
    EXPECT_EQ(hit[0].id, next_id) << "round " << round;
    EXPECT_EQ(hit[0].dist2, 0.0f) << "round " << round;

    // Erase it again: gone from every request admitted afterwards.
    const std::uint64_t doomed[] = {next_id};
    EXPECT_EQ(service.erase_ids(doomed), 1u);
    data::PointSet survivors(live.dims());
    for (std::uint64_t i = 0; i < live.size(); ++i) {
      if (live.id(i) == next_id) continue;
      live.copy_point(i, p.data());
      survivors.push_point(p, live.id(i));
    }
    live = std::move(survivors);
    auto after = service.submit(Request::knn(p, 5)).get();
    EXPECT_EQ(after, oracle_for(live, Request::knn(p, 5)))
        << "round " << round;
    for (const auto& nb : after) EXPECT_NE(nb.id, next_id);

    next_id += 48;
  }

  stop.store(true);
  for (auto& t : clients) t.join();
  service.shutdown();

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.ingest_batches, 10u);
  EXPECT_EQ(stats.ingested_points, 480u);
  EXPECT_EQ(stats.erased_ids, 10u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(f.backend->size(), live.size());
}

TEST(ServeIngest, SnapshotsAreBatchAtomicDuringMerges) {
  // Pairs of points at one fixed location are inserted and erased as
  // two-point batches while readers hammer that location. Every read
  // must see both points of the current generation or neither — one
  // visible without its twin would mean a torn snapshot. buffer=8
  // keeps seals/merges churning underneath the whole time.
  const std::uint64_t n = 64;
  Fixture f = make_mutable_fixture(n, 21, /*buffer_capacity=*/8);
  ServeConfig config;
  QueryService service(f.backend, config);

  const std::vector<float> spot{10.0f, 10.0f, 10.0f};  // far from data
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // A few reads even if the writer laps the schedule before this
      // thread first runs (single-core scheduling).
      int remaining_min_reads = 5;
      while (remaining_min_reads-- > 0 ||
             !stop.load(std::memory_order_relaxed)) {
        const auto row = service.submit(Request::knn(spot, 2)).get();
        std::size_t at_spot = 0;
        for (const auto& nb : row) {
          if (nb.dist2 == 0.0f) ++at_spot;
        }
        if (at_spot == 1) {
          ADD_FAILURE() << "torn snapshot: one of a pair visible";
          stop.store(true);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t next_id = 1000;
  for (int generation = 0; generation < 40; ++generation) {
    data::PointSet pair(f.points.dims());
    pair.push_point(spot, next_id);
    pair.push_point(spot, next_id + 1);
    service.ingest(pair);
    const std::uint64_t doomed[] = {next_id, next_id + 1};
    EXPECT_EQ(service.erase_ids(doomed), 2u);
    next_id += 2;
  }

  stop.store(true);
  for (auto& t : readers) t.join();
  service.shutdown();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.stats().failed, 0u);
}

// ---------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------

TEST(ServeStats, LatencyHistogramQuantilesAreOrderedAndBounded) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.record(static_cast<double>(i));
  const LatencySummary summary = histogram.summary();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_DOUBLE_EQ(summary.max_us, 1000.0);
  EXPECT_NEAR(summary.mean_us, 500.5, 0.5);
  EXPECT_LE(summary.p50_us, summary.p95_us);
  EXPECT_LE(summary.p95_us, summary.p99_us);
  EXPECT_LE(summary.p99_us, summary.max_us);
  // ~19 % geometric bucket resolution around the true quantiles.
  EXPECT_NEAR(summary.p50_us, 500.0, 500.0 * 0.25);
  EXPECT_NEAR(summary.p95_us, 950.0, 950.0 * 0.25);

  LatencyHistogram empty;
  const LatencySummary zero = empty.summary();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_DOUBLE_EQ(zero.p99_us, 0.0);
}

}  // namespace
}  // namespace panda::serve
