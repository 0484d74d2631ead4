// Lifecycle tests: engines and trees are long-lived objects in the
// paper's workflow (build once, query many times, possibly with
// different configurations) — verify reuse, batch-size switching, and
// interleaving engines over one tree.
#include <gtest/gtest.h>

#include <mutex>

#include "baselines/brute_force.hpp"
#include "data/generators.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "dist/radius_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::dist {
namespace {

using core::Neighbor;

TEST(EngineReuse, RepeatedRunsAndBatchSwitchesStayExact) {
  const std::uint64_t n_points = 3000;
  const std::uint64_t n_queries = 120;
  std::vector<std::vector<std::vector<Neighbor>>> all_runs(4);
  for (auto& r : all_runs) r.resize(n_queries);
  std::mutex mutex;

  net::ClusterConfig config;
  config.ranks = 4;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("cosmo", 123);
    const data::PointSet slice =
        gen->generate_slice(n_points, comm.rank(), comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    const auto qgen = data::make_generator("cosmo", 321);
    const std::uint64_t q_begin = static_cast<std::uint64_t>(comm.rank()) *
                                  n_queries / 4;
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(comm.rank() + 1) * n_queries / 4;
    data::PointSet my_queries(3);
    qgen->generate(q_begin, q_end, my_queries);

    // One engine, four runs: a batch size, the whole block in one
    // coalescing round, a smaller batch, and the first batch again.
    DistQueryEngine engine(comm, tree);
    const DistQueryConfig configs[4] = {
        {.k = 5, .batch_size = 32},
        {.k = 5, .batch_size = 4096},
        {.k = 5, .batch_size = 7},
        {.k = 5, .batch_size = 32},
    };
    core::NeighborTable results;
    for (int run = 0; run < 4; ++run) {
      engine.run_into(my_queries, configs[run], results);
      std::lock_guard<std::mutex> lock(mutex);
      for (std::uint64_t i = 0; i < results.size(); ++i) {
        const auto row = results[i];
        all_runs[static_cast<std::size_t>(run)][q_begin + i].assign(
            row.begin(), row.end());
      }
    }
  });

  const auto gen = data::make_generator("cosmo", 123);
  const data::PointSet points = gen->generate_all(n_points);
  const auto qgen = data::make_generator("cosmo", 321);
  const data::PointSet queries = qgen->generate_all(n_queries);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    const auto expected = baselines::brute_force_knn(points, q, 5);
    for (int run = 0; run < 4; ++run) {
      const auto& actual = all_runs[static_cast<std::size_t>(run)][i];
      ASSERT_EQ(actual.size(), expected.size()) << "run " << run;
      for (std::size_t j = 0; j < actual.size(); ++j) {
        ASSERT_EQ(actual[j].dist2, expected[j].dist2)
            << "run " << run << " query " << i;
      }
    }
  }
}

TEST(EngineReuse, KnnAndRadiusEnginesInterleaveOverOneTree) {
  net::ClusterConfig config;
  config.ranks = 3;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("gmm", 7);
    const data::PointSet slice = gen->generate_slice(3000, comm.rank(), 3);
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    data::PointSet queries(3);
    const auto qgen = data::make_generator("gmm", 8);
    qgen->generate(0, 30, queries);

    DistQueryEngine knn(comm, tree);
    DistRadiusEngine radius(comm, tree);
    core::NeighborTable knn_results;
    core::NeighborTable radius_results;
    for (int round = 0; round < 3; ++round) {
      knn.run_into(queries, {.k = 3}, knn_results);
      RadiusQueryConfig rconfig;
      rconfig.radius = 0.08f;
      radius.run_into(queries, rconfig, radius_results);
      ASSERT_EQ(knn_results.size(), 30u);
      ASSERT_EQ(radius_results.size(), 30u);
      // Cross-check: every radius result closer than the 3rd KNN
      // distance must appear among the KNN results' distances.
      for (std::size_t i = 0; i < 30; ++i) {
        const auto knn_row = knn_results[i];
        const auto radius_row = radius_results[i];
        if (knn_row.size() < 3) continue;
        const float third = knn_row.back().dist2;
        std::size_t within = 0;
        for (const auto& n : radius_row) {
          if (n.dist2 < third) ++within;
        }
        // Neighbors strictly closer than the 3rd-nearest are at most 2
        // (ties aside) and each must be one of the KNN entries.
        for (std::size_t j = 0; j < std::min<std::size_t>(within, 3); ++j) {
          ASSERT_EQ(radius_row[j].dist2, knn_row[j].dist2);
        }
      }
    }
  });
}

TEST(EngineReuse, TreeOutlivesManyClusterRunsOfQueries) {
  // The build-once / query-every-timestep pattern: one Cluster object,
  // several run() invocations, the tree rebuilt only in the first.
  const auto gen = data::make_generator("plasma", 31);
  net::ClusterConfig config;
  config.ranks = 2;
  net::Cluster cluster(config);

  // DistKdTree lives inside a run; to persist across runs, this test
  // rebuilds per run but asserts the global layout is stable so
  // downstream caches would remain valid.
  std::vector<std::uint64_t> first_counts;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> counts(2, 0);
    std::mutex mutex;
    cluster.run([&](net::Comm& comm) {
      const data::PointSet slice = gen->generate_slice(2000, comm.rank(), 2);
      const DistKdTree tree =
          DistKdTree::build(comm, slice, DistBuildConfig{});
      std::lock_guard<std::mutex> lock(mutex);
      counts[static_cast<std::size_t>(comm.rank())] =
          tree.local_points().size();
    });
    if (round == 0) {
      first_counts = counts;
    } else {
      EXPECT_EQ(counts, first_counts) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace panda::dist
