// The bulk all-points KNN engine (DESIGN.md §7) must return the exact
// per-point neighbor lists — ids and distances, element for element —
// that the single-node brute-force oracle computes, for every rank
// count, on uniform, clustered, and duplicate-heavy data, at every
// pipelining depth of stages 3-5. The duplicate-heavy case is the
// determinism net: large equal-distance tie groups make any
// arrival-order dependence in the heaps or merges visible as an id
// mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "baselines/brute_force.hpp"
#include "data/generators.hpp"
#include "dist/all_knn.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"

namespace panda::dist {
namespace {

using core::Neighbor;

/// Runs the bulk engine over `n_points` of `dataset` (seed 4242) on
/// `ranks` ranks and returns each point's row by global id (collected
/// from whichever rank owned it after redistribution); the ranks'
/// counters are summed into `total`.
std::vector<std::vector<Neighbor>> bulk_rows(const char* dataset,
                                             std::uint64_t n_points,
                                             int ranks, int threads_per_rank,
                                             const AllKnnConfig& aconfig,
                                             AllKnnStats& total) {
  std::vector<std::vector<Neighbor>> rows_by_id(n_points);
  std::mutex mutex;
  net::ClusterConfig config;
  config.ranks = ranks;
  config.threads_per_rank = threads_per_rank;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator(dataset, 4242);
    const data::PointSet slice =
        gen->generate_slice(n_points, comm.rank(), comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});

    AllKnnEngine engine(comm, tree);
    AllKnnStats stats;
    core::NeighborTable results;
    engine.run_into(aconfig, results, &stats);

    std::lock_guard<std::mutex> lock(mutex);
    const data::PointSet& mine = tree.local_points();
    ASSERT_EQ(results.size(), mine.size());
    for (std::uint64_t i = 0; i < results.size(); ++i) {
      const auto row = results[i];
      rows_by_id[mine.id(i)].assign(row.begin(), row.end());
    }
    total.queries_total += stats.queries_total;
    total.queries_local_only += stats.queries_local_only;
    total.queries_remote += stats.queries_remote;
    total.ball_overlaps += stats.ball_overlaps;
    total.request_messages += stats.request_messages;
    total.response_messages += stats.response_messages;
  });
  return rows_by_id;
}

/// The brute-force rows of every point of `dataset` (seed 4242).
std::vector<std::vector<Neighbor>> oracle_rows(const char* dataset,
                                               std::uint64_t n_points,
                                               std::size_t k) {
  const auto gen = data::make_generator(dataset, 4242);
  const data::PointSet points = gen->generate_all(n_points);
  std::vector<std::vector<Neighbor>> rows(n_points);
  std::vector<float> q(points.dims());
  for (std::uint64_t p = 0; p < n_points; ++p) {
    points.copy_point(p, q.data());
    rows[p] = baselines::brute_force_knn(points, q, k);
  }
  return rows;
}

class AllKnnExactSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AllKnnExactSweep, EveryPointMatchesBruteForceById) {
  const auto [dataset, ranks] = GetParam();
  const std::uint64_t n_points = 3000;
  const std::size_t k = 6;

  AllKnnStats stats_total;
  // batch 128: several coalescing rounds per rank.
  const auto rows = bulk_rows(dataset, n_points, ranks, 1,
                              {.k = k, .batch_size = 128}, stats_total);

  // Every global point was answered by exactly one rank.
  EXPECT_EQ(stats_total.queries_total, n_points);
  EXPECT_EQ(stats_total.queries_local_only + stats_total.queries_remote,
            n_points);
  if (ranks > 1) {
    // Coalescing: request messages are bounded by (rank pairs x
    // rounds), never by per-query fanout.
    EXPECT_LE(stats_total.request_messages, stats_total.ball_overlaps);
    EXPECT_EQ(stats_total.response_messages, stats_total.request_messages);
  }

  const auto expected = oracle_rows(dataset, n_points, k);
  for (std::uint64_t p = 0; p < n_points; ++p) {
    ASSERT_EQ(rows[p], expected[p])
        << dataset << " ranks=" << ranks << " point " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsRanks, AllKnnExactSweep,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(1, 2, 4, 8)));

TEST(AllKnn, EveryPipeliningDepthMatchesBruteForce) {
  // batch_size sets how many coalescing rounds stages 3-5 take: one
  // query per round, a few, many, and SIZE_MAX — the whole block in a
  // single round. On duplicate-heavy data the round a tied candidate
  // arrives in must not decide which id survives.
  const std::uint64_t n_points = 3000;
  const std::size_t k = 6;
  const auto expected = oracle_rows("dupes", n_points, k);
  for (const int ranks : {2, 4}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{128}, SIZE_MAX}) {
      for (const int threads : {1, 2}) {
        AllKnnStats stats;
        const auto rows = bulk_rows("dupes", n_points, ranks, threads,
                                    {.k = k, .batch_size = batch}, stats);
        EXPECT_EQ(stats.queries_total, n_points);
        for (std::uint64_t p = 0; p < n_points; ++p) {
          ASSERT_EQ(rows[p], expected[p])
              << ranks << " ranks, batch " << batch << ", " << threads
              << " threads per rank, point " << p;
        }
      }
    }
  }
}

TEST(AllKnn, SelfIsFirstNeighborAtZeroDistance) {
  net::ClusterConfig config;
  config.ranks = 2;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("uniform", 77);
    const data::PointSet slice = gen->generate_slice(500, comm.rank(), 2);
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    AllKnnEngine engine(comm, tree);
    core::NeighborTable results;
    engine.run_into({.k = 3}, results);
    const data::PointSet& mine = tree.local_points();
    for (std::uint64_t i = 0; i < results.size(); ++i) {
      const auto row = results[i];
      ASSERT_EQ(row.size(), 3u);
      // Uniform draws are distinct, so the point itself is the unique
      // 0-distance neighbor.
      EXPECT_EQ(row.front().id, mine.id(i));
      EXPECT_EQ(row.front().dist2, 0.0f);
    }
  });
}

TEST(AllKnn, KLargerThanDatasetReturnsEverything) {
  net::ClusterConfig config;
  config.ranks = 3;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("uniform", 99);
    const data::PointSet slice = gen->generate_slice(10, comm.rank(), 3);
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    AllKnnEngine engine(comm, tree);
    core::NeighborTable results;
    engine.run_into({.k = 32}, results);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].size(), 10u);  // whole dataset, from every rank
    }
  });
}

TEST(AllKnn, RejectsZeroK) {
  net::ClusterConfig config;
  config.ranks = 1;
  net::Cluster cluster(config);
  EXPECT_THROW(cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("uniform", 1);
    const data::PointSet slice = gen->generate_slice(10, 0, 1);
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    AllKnnEngine engine(comm, tree);
    core::NeighborTable results;
    engine.run_into({.k = 0}, results);
  }),
               panda::Error);
}

}  // namespace
}  // namespace panda::dist
