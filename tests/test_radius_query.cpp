// Tests for fixed-radius search: the local query_radius primitive
// against a brute-force filter, and the distributed DistRadiusEngine
// against the single-node oracle across rank counts and radii.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <tuple>

#include "baselines/brute_force.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/radius_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::dist {
namespace {

using core::Neighbor;

std::vector<Neighbor> brute_radius(const data::PointSet& points,
                                   std::span<const float> q, float radius) {
  std::vector<Neighbor> out;
  const float r2 = radius * radius;
  const std::size_t dims = points.dims();
  for (std::uint64_t i = 0; i < points.size(); ++i) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dims; ++d) {
      const float diff = q[d] - points.at(i, d);
      acc += diff * diff;
    }
    if (acc < r2) out.push_back({acc, points.id(i)});
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist2 < b.dist2;
  });
  return out;
}

void expect_same_sets(const std::vector<Neighbor>& actual,
                      const std::vector<Neighbor>& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  // Compare as multisets of (dist, id): sort order may permute ties.
  auto key = [](const Neighbor& n) {
    return std::make_pair(n.dist2, n.id);
  };
  std::vector<std::pair<float, std::uint64_t>> a;
  std::vector<std::pair<float, std::uint64_t>> e;
  for (const auto& n : actual) a.push_back(key(n));
  for (const auto& n : expected) e.push_back(key(n));
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  ASSERT_EQ(a, e) << context;
}

class LocalRadiusSweep
    : public ::testing::TestWithParam<std::tuple<const char*, float>> {};

TEST_P(LocalRadiusSweep, MatchesBruteForceFilter) {
  const auto [dataset, radius] = GetParam();
  const auto gen = data::make_generator(dataset, 41);
  const data::PointSet points = gen->generate_all(3000);
  const data::PointSet queries = gen->generate_all(80);
  parallel::ThreadPool pool(4);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(points.dims());
    queries.copy_point(i, q.data());
    expect_same_sets(tree.query_radius(q, radius),
                     brute_radius(points, q, radius),
                     std::string(dataset) + " r=" + std::to_string(radius));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsRadii, LocalRadiusSweep,
    ::testing::Combine(::testing::Values("uniform", "cosmo", "gmm"),
                       ::testing::Values(0.0f, 0.01f, 0.05f, 0.3f)));

TEST(LocalRadius, ResultsSortedAscending) {
  const auto gen = data::make_generator("cosmo", 43);
  const data::PointSet points = gen->generate_all(5000);
  parallel::ThreadPool pool(2);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  const auto result =
      tree.query_radius(std::vector<float>{0.5f, 0.5f, 0.5f}, 0.2f);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.dist2 < b.dist2;
                             }));
}

TEST(LocalRadius, StrictInequalityAtBoundary) {
  parallel::ThreadPool pool(1);
  data::PointSet points(1);
  points.push_point(std::vector<float>{2.0f}, 0);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  EXPECT_TRUE(tree.query_radius(std::vector<float>{0.0f}, 2.0f).empty());
  EXPECT_EQ(tree.query_radius(std::vector<float>{0.0f}, 2.01f).size(), 1u);
}

TEST(LocalRadius, NegativeRadiusThrows) {
  parallel::ThreadPool pool(1);
  data::PointSet points(1);
  points.push_point(std::vector<float>{0.0f}, 0);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  EXPECT_THROW(tree.query_radius(std::vector<float>{0.0f}, -1.0f),
               panda::Error);
}

struct DistRadiusCase {
  const char* dataset;
  int ranks;
  float radius;
  /// Queries per exchange round; SIZE_MAX ships them all in one.
  std::size_t batch = 64;
};

class DistRadiusSweep : public ::testing::TestWithParam<DistRadiusCase> {};

TEST_P(DistRadiusSweep, MatchesOracleAcrossRanks) {
  const DistRadiusCase param = GetParam();
  const std::uint64_t n_points = 4000;
  const std::uint64_t n_queries = 150;

  std::vector<std::vector<Neighbor>> dist_results(n_queries);
  std::mutex mutex;
  net::ClusterConfig config;
  config.ranks = param.ranks;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator(param.dataset, 999);
    const data::PointSet slice =
        gen->generate_slice(n_points, comm.rank(), comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    const auto qgen = data::make_generator(param.dataset, 1717);
    const std::uint64_t q_begin = static_cast<std::uint64_t>(comm.rank()) *
                                  n_queries /
                                  static_cast<std::uint64_t>(comm.size());
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(comm.rank() + 1) * n_queries /
        static_cast<std::uint64_t>(comm.size());
    data::PointSet my_queries(tree.dims());
    qgen->generate(q_begin, q_end, my_queries);

    DistRadiusEngine engine(comm, tree);
    RadiusQueryConfig rconfig;
    rconfig.radius = param.radius;
    rconfig.batch_size = param.batch;
    core::NeighborTable results;
    engine.run_into(my_queries, rconfig, results);
    std::lock_guard<std::mutex> lock(mutex);
    for (std::uint64_t i = 0; i < results.size(); ++i) {
      const auto row = results[i];
      dist_results[q_begin + i].assign(row.begin(), row.end());
    }
  });

  const auto gen = data::make_generator(param.dataset, 999);
  const data::PointSet points = gen->generate_all(n_points);
  const auto qgen = data::make_generator(param.dataset, 1717);
  const data::PointSet queries = qgen->generate_all(n_queries);
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    std::vector<float> q(points.dims());
    queries.copy_point(i, q.data());
    expect_same_sets(dist_results[i], brute_radius(points, q, param.radius),
                     "query " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistRadiusSweep,
    ::testing::Values(DistRadiusCase{"uniform", 1, 0.05f},
                      DistRadiusCase{"uniform", 4, 0.05f},
                      DistRadiusCase{"uniform", 4, 0.3f},
                      DistRadiusCase{"cosmo", 3, 0.02f},
                      DistRadiusCase{"cosmo", 8, 0.05f},
                      DistRadiusCase{"gmm", 5, 0.1f},
                      DistRadiusCase{"uniform", 4, 0.05f, SIZE_MAX},
                      DistRadiusCase{"gmm", 3, 0.1f, SIZE_MAX}));

TEST(DistRadius, RowsInvariantAcrossRanksAndBatchSizes) {
  // Each row is in the full (dist², id) order, not in the order its
  // pieces happened to arrive. Sweep rank counts x batch sizes on
  // duplicate-heavy data (maximal distance ties) and require
  // bit-identical rows.
  const std::uint64_t n_points = 2000;
  const std::uint64_t n_queries = 60;
  const float radius = 0.25f;

  std::vector<std::vector<std::vector<Neighbor>>> runs;
  for (const int ranks : {1, 2, 5}) {
    for (const std::size_t batch : {7u, 64u, 4096u}) {
      std::vector<std::vector<Neighbor>> all_results(n_queries);
      std::mutex mutex;
      net::ClusterConfig config;
      config.ranks = ranks;
      net::Cluster cluster(config);
      cluster.run([&](net::Comm& comm) {
        const auto gen = data::make_generator("dupes", 321);
        const data::PointSet slice =
            gen->generate_slice(n_points, comm.rank(), comm.size());
        const DistKdTree tree =
            DistKdTree::build(comm, slice, DistBuildConfig{});
        const auto qgen = data::make_generator("dupes", 123);
        const std::uint64_t q_begin =
            static_cast<std::uint64_t>(comm.rank()) * n_queries /
            static_cast<std::uint64_t>(comm.size());
        const std::uint64_t q_end =
            static_cast<std::uint64_t>(comm.rank() + 1) * n_queries /
            static_cast<std::uint64_t>(comm.size());
        data::PointSet my_queries(tree.dims());
        qgen->generate(q_begin, q_end, my_queries);

        DistRadiusEngine engine(comm, tree);
        RadiusQueryConfig rconfig;
        rconfig.radius = radius;
        rconfig.batch_size = batch;
        core::NeighborTable results;
        engine.run_into(my_queries, rconfig, results);
        std::lock_guard<std::mutex> lock(mutex);
        for (std::uint64_t i = 0; i < results.size(); ++i) {
          const auto row = results[i];
          all_results[q_begin + i].assign(row.begin(), row.end());
        }
      });
      runs.push_back(std::move(all_results));
    }
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::uint64_t i = 0; i < n_queries; ++i) {
      ASSERT_EQ(runs[r][i], runs[0][i])
          << "run " << r << " query " << i
          << " differs from the 1-rank baseline";
    }
  }
}

TEST(DistRadius, BreakdownCountsPopulated) {
  net::ClusterConfig config;
  config.ranks = 4;
  net::Cluster cluster(config);
  std::mutex mutex;
  std::uint64_t owned_total = 0;
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator("cosmo", 5);
    const data::PointSet slice = gen->generate_slice(4000, comm.rank(), 4);
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});
    data::PointSet queries(3);
    const auto qgen = data::make_generator("cosmo", 6);
    qgen->generate(0, 50, queries);
    DistRadiusEngine engine(comm, tree);
    RadiusQueryConfig rconfig;
    rconfig.radius = 0.05f;
    RadiusQueryBreakdown bd;
    core::NeighborTable results;
    engine.run_into(queries, rconfig, results, &bd);
    std::lock_guard<std::mutex> lock(mutex);
    owned_total += bd.queries_owned;
  });
  // Every rank issued 50 queries; each query is answered by >= 1 rank.
  EXPECT_GE(owned_total, 200u);
}

}  // namespace
}  // namespace panda::dist
