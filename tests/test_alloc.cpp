// Zero-steady-state-allocation regression tests (DESIGN.md §9).
//
// The query hot path promises that with warm caller-owned state
// (NeighborTable + BatchWorkspace / QueryWorkspace / backend scratch)
// the second and later calls perform ZERO allocator calls: no result
// vectors, no heap growth, no scratch churn. These tests count every
// global operator new (tests/alloc_probe.hpp is included by exactly
// this translation unit) across a repeated call and pin the count to
// zero.
//
// Determinism note: the strict-zero assertions run shapes whose warm
// capacity does not depend on the dynamic chunk schedule — per-thread
// scratch in the top-k paths is bounded by (dims, k, bucket, depth)
// alone — plus the first tombstone over-fetch on the forest — and is
// warmed for every pool thread before the fan-out, and the radius
// paths (whose staging scales with per-thread work volume) run on a
// size-1 pool.
#include "alloc_probe.hpp"  // must be first: defines operator new

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/mutable_index.hpp"
#include "panda.hpp"

namespace {

using namespace panda;
using core::Neighbor;

struct Fixture {
  Fixture(std::uint64_t n, int threads)
      : pool(std::make_shared<parallel::ThreadPool>(threads)) {
    const auto gen = data::make_generator("gmm", 20260728);
    points = gen->generate_all(n);
    tree = std::make_shared<core::KdTree>(
        core::KdTree::build(points, core::BuildConfig{}, *pool));
  }
  std::shared_ptr<parallel::ThreadPool> pool;
  data::PointSet points;
  std::shared_ptr<core::KdTree> tree;
};

TEST(AllocFree, QuerySqBatchSteadyState) {
  Fixture f(20000, 4);
  core::NeighborTable results;
  core::BatchWorkspace ws;
  // Two warm-up calls populate every arena, workspace, and per-thread
  // buffer at its steady size.
  f.tree->query_sq_batch(f.points, 8, *f.pool, results, ws);
  f.tree->query_sq_batch(f.points, 8, *f.pool, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.tree->query_sq_batch(f.points, 8, *f.pool, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(results.size(), f.points.size());
}

TEST(AllocFree, QuerySelfBatchSteadyState) {
  Fixture f(20000, 4);
  core::NeighborTable results;
  core::BatchWorkspace ws;
  f.tree->query_self_batch(8, *f.pool, results, ws);
  f.tree->query_self_batch(8, *f.pool, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.tree->query_self_batch(8, *f.pool, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(results.size(), f.points.size());
}

TEST(AllocFree, QuerySqBatchDifferentKReusesWorkspace) {
  Fixture f(10000, 4);
  core::NeighborTable results;
  core::BatchWorkspace ws;
  // Warm at the LARGEST k, then alternate: smaller k must fit the warm
  // arena without touching the allocator (KnnHeap::reset reuses its
  // reservation).
  f.tree->query_sq_batch(f.points, 16, *f.pool, results, ws);
  f.tree->query_sq_batch(f.points, 5, *f.pool, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.tree->query_sq_batch(f.points, 5, *f.pool, results, ws);
  f.tree->query_sq_batch(f.points, 16, *f.pool, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
}

TEST(AllocFree, SingleQueryIntoSteadyState) {
  Fixture f(20000, 1);
  core::QueryWorkspace ws;
  std::vector<Neighbor> out(8);
  std::vector<float> q(f.points.dims());
  f.points.copy_point(7, q.data());
  (void)f.tree->query_sq_into(q, 8, std::numeric_limits<float>::infinity(),
                              ws, out);
  const std::uint64_t before = panda::testing::alloc_count();
  for (std::uint64_t i = 0; i < 256; ++i) {
    f.points.copy_point(i, q.data());
    const std::size_t count = f.tree->query_sq_into(
        q, 8, std::numeric_limits<float>::infinity(), ws, out);
    ASSERT_EQ(count, 8u);
  }
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
}

TEST(AllocFree, QueryRadiusBatchSteadyState) {
  Fixture f(20000, 1);  // size-1 pool: deterministic staging capacity
  core::NeighborTable results;
  core::BatchWorkspace ws;
  std::vector<float> radii(f.points.size(), 0.1f);
  f.tree->query_radius_batch(f.points, radii, *f.pool, results, ws);
  f.tree->query_radius_batch(f.points, radii, *f.pool, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.tree->query_radius_batch(f.points, radii, *f.pool, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(results.size(), f.points.size());
}

TEST(AllocFree, ServingBackendSteadyState) {
  Fixture f(20000, 2);
  IndexOptions options;
  options.pool = f.pool;
  serve::IndexBackend backend(panda::Index::build(f.points, options));
  // A mixed micro-batch: 48 KNN + 16 radius requests, the serving
  // frontend's shape.
  std::vector<serve::Request> batch;
  std::vector<float> q(f.points.dims());
  for (std::size_t j = 0; j < 64; ++j) {
    f.points.copy_point(j * 17 % f.points.size(), q.data());
    if (j % 4 == 3) {
      batch.push_back(serve::Request::radius_search(q, 0.1f));
    } else {
      batch.push_back(serve::Request::knn(q, 5));
    }
  }
  std::vector<serve::Result> results;
  backend.run_batch(batch, results);
  backend.run_batch(batch, results);
  const std::uint64_t before = panda::testing::alloc_count();
  backend.run_batch(batch, results);
  backend.run_batch(batch, results);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_FALSE(results[0].empty());
}

/// The Mutable forest the serving path runs: a seed tree over the
/// fixture points plus one 500-point buffered run, with tombstones in
/// both.
struct ForestFixture {
  explicit ForestFixture(int threads) : base(20000, threads) {
    core::MutableConfig config;
    config.buffer_capacity = 4096;  // the run stays buffered
    index = std::make_unique<core::MutableIndex>(
        core::KdTree::build(base.points, core::BuildConfig{}, *base.pool),
        config, core::BuildConfig{}, base.pool);
    const auto gen = data::make_generator("gmm", 20260729);
    data::PointSet run(gen->dims());
    gen->generate(base.points.size(), base.points.size() + 500, run);
    index->insert(run);
    std::vector<std::uint64_t> doomed;
    for (std::uint64_t id = 0; id < base.points.size() + 500; id += 97) {
      doomed.push_back(id);
    }
    EXPECT_EQ(index->erase(doomed), doomed.size());
    index->quiesce();
    const core::MutationStats stats = index->stats();
    EXPECT_EQ(stats.trees, 1u);
    EXPECT_EQ(stats.buffered_points, 500u);
  }

  /// The first n fixture points as a query batch.
  data::PointSet head(std::uint64_t n) const {
    std::vector<std::uint64_t> rows(n);
    for (std::uint64_t i = 0; i < n; ++i) rows[i] = i;
    return base.points.extract(rows);
  }

  Fixture base;
  std::unique_ptr<core::MutableIndex> index;
};

TEST(AllocFree, MutableKnnBatchSteadyState) {
  ForestFixture f(4);
  const data::PointSet wide = f.head(4000);  // fans out over the pool
  const data::PointSet narrow = f.head(48);  // runs inline
  core::NeighborTable results;
  core::ForestWorkspace ws;
  f.index->knn_batch(wide, 8, results, ws);
  f.index->knn_batch(narrow, 8, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.index->knn_batch(wide, 8, results, ws);
  f.index->knn_batch(narrow, 8, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(results.size(), narrow.size());
}

TEST(AllocFree, MutableRadiusBatchSteadyState) {
  ForestFixture f(1);  // size-1 pool: deterministic staging capacity
  const data::PointSet queries = f.head(1000);
  const std::vector<float> radii(queries.size(), 0.1f);
  core::NeighborTable results;
  core::ForestWorkspace ws;
  f.index->radius_batch(queries, radii, results, ws);
  f.index->radius_batch(queries, radii, results, ws);
  const std::uint64_t before = panda::testing::alloc_count();
  f.index->radius_batch(queries, radii, results, ws);
  EXPECT_EQ(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(results.size(), queries.size());
}

TEST(AllocBuild, NoPerNodeAllocation) {
  // Split selection reads its sample positions in place and keeps its
  // per-dimension state on the stack; what remains are the build's
  // arrays, its phase bookkeeping and one sample per large node. So 4x
  // the points add ~3,000 splits but only a few allocator calls: one
  // allocation per split would break the bound many times over.
  const auto gen = data::make_generator("dayabay", 20260730);
  const data::PointSet small = gen->generate_all(20000);
  const data::PointSet large = gen->generate_all(80000);
  parallel::ThreadPool pool(1);
  for (const auto policy : {core::BuildConfig::DimensionPolicy::MaxVariance,
                            core::BuildConfig::DimensionPolicy::RoundRobin}) {
    core::BuildConfig config;
    config.dim_policy = policy;
    auto build_calls = [&](const data::PointSet& points) {
      const std::uint64_t before = panda::testing::alloc_count();
      const core::KdTree tree = core::KdTree::build(points, config, pool);
      return panda::testing::alloc_count() - before;
    };
    const std::uint64_t calls_20k = build_calls(small);
    const std::uint64_t calls_80k = build_calls(large);
    EXPECT_LT(calls_80k, calls_20k + 256)
        << "20k points: " << calls_20k << " calls, 80k points: " << calls_80k;
  }
}

TEST(AllocSetup, SeedingMakesConstantAllocatorCalls) {
  // Seeding a live index from a built tree reads the ids from the
  // packed id array, radix-sorts them and fills the flat live-id set,
  // each into one buffer: 5x the points must not add allocator calls.
  const auto gen = data::make_generator("gmm", 20260731);
  const auto pool = std::make_shared<parallel::ThreadPool>(1);
  auto seed_calls = [&](std::uint64_t n) {
    core::KdTree tree =
        core::KdTree::build(gen->generate_all(n), core::BuildConfig{}, *pool);
    const std::uint64_t before = panda::testing::alloc_count();
    const core::MutableIndex index(std::move(tree), core::MutableConfig{},
                                   core::BuildConfig{}, pool);
    const std::uint64_t calls = panda::testing::alloc_count() - before;
    EXPECT_EQ(index.size(), n);
    return calls;
  };
  const std::uint64_t calls_20k = seed_calls(20000);
  const std::uint64_t calls_100k = seed_calls(100000);
  EXPECT_LT(std::max(calls_20k, calls_100k) - std::min(calls_20k, calls_100k),
            16u)
      << "20k points: " << calls_20k << " calls, 100k points: "
      << calls_100k;
}

TEST(AllocSetup, LivePointsCopiesEachPointOnce) {
  // live_points() ranks the live slots by id once and writes each point
  // straight into its row, from the packed leaf or the run: a few
  // buffers whatever the point count. Copying through a scratch set and
  // a set grown by doubling took 81 allocator calls at 20k points and
  // 88 at 100k. save() and compact() gather the same way.
  const auto gen = data::make_generator("gmm", 20260801);
  const auto pool = std::make_shared<parallel::ThreadPool>(1);
  auto gather_calls = [&](std::uint64_t n) {
    core::MutableConfig config;
    config.buffer_capacity = 4096;  // the run stays buffered
    core::MutableIndex index(
        core::KdTree::build(gen->generate_all(n), core::BuildConfig{}, *pool),
        config, core::BuildConfig{}, pool);
    data::PointSet run(gen->dims());
    gen->generate(n, n + 300, run);
    index.insert(run);
    std::vector<std::uint64_t> doomed;  // 1% of the ids, trees and run
    for (std::uint64_t id = 0; id < n + 300; id += 100) doomed.push_back(id);
    EXPECT_EQ(index.erase(doomed), doomed.size());
    index.quiesce();
    const std::uint64_t before = panda::testing::alloc_count();
    const data::PointSet live = index.live_points();
    const std::uint64_t calls = panda::testing::alloc_count() - before;
    EXPECT_EQ(live.size(), n + 300 - doomed.size());
    EXPECT_TRUE(std::is_sorted(live.ids().begin(), live.ids().end()));
    return calls;
  };
  EXPECT_LT(gather_calls(20000), 16u);
  EXPECT_LT(gather_calls(100000), 16u);
}

// Sanity: the probe actually counts.
TEST(AllocProbe, CountsAllocations) {
  const std::uint64_t before = panda::testing::alloc_count();
  auto p = std::make_unique<std::vector<int>>(1000);
  EXPECT_GT(panda::testing::alloc_count() - before, 0u);
  EXPECT_EQ(p->size(), 1000u);
}

}  // namespace
