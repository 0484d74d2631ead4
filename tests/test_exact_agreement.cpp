// Exact-agreement sweep: the full distributed pipeline (DistKdTree
// build + five-stage query) must return *identical*
// results — ids and distances, element for element — to the
// single-node brute-force oracle, for every tested rank count, on
// uniform, clustered, and duplicate-heavy data. This is the strongest
// end-to-end statement the engine makes: redistribution moved every
// point somewhere retrievable, the protocol found exactly the true
// neighbor set, and the deterministic (dist², id) tie order
// (DESIGN.md §5) makes even the within-tie order reproducible. The
// "dupes" dataset is the regression net for the tie-breaking fixes:
// many bit-identical points, with k spanning the tie groups, so any
// arrival-order dependence breaks the id-for-id assertion.
#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "baselines/brute_force.hpp"
#include "data/generators.hpp"
#include "dist/dist_kdtree.hpp"
#include "dist/dist_query.hpp"
#include "net/cluster.hpp"
#include "net/comm.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::dist {
namespace {

using core::Neighbor;

class ExactAgreementSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ExactAgreementSweep, IndicesAndDistancesMatchBruteForce) {
  const auto [dataset, ranks] = GetParam();
  const std::uint64_t n_points = 3000;
  const std::uint64_t n_queries = 200;
  const std::size_t k = 6;

  std::vector<std::vector<Neighbor>> dist_results(n_queries);
  std::mutex mutex;
  net::ClusterConfig config;
  config.ranks = ranks;
  net::Cluster cluster(config);
  cluster.run([&](net::Comm& comm) {
    const auto gen = data::make_generator(dataset, 4242);
    const data::PointSet slice =
        gen->generate_slice(n_points, comm.rank(), comm.size());
    const DistKdTree tree = DistKdTree::build(comm, slice, DistBuildConfig{});

    const std::uint64_t q_begin = static_cast<std::uint64_t>(comm.rank()) *
                                  n_queries /
                                  static_cast<std::uint64_t>(comm.size());
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(comm.rank() + 1) * n_queries /
        static_cast<std::uint64_t>(comm.size());
    const auto qgen = data::make_generator(dataset, 2424);
    data::PointSet my_queries(tree.dims());
    qgen->generate(q_begin, q_end, my_queries);

    DistQueryEngine engine(comm, tree);
    DistQueryConfig qconfig;
    qconfig.k = k;
    qconfig.batch_size = 32;
    core::NeighborTable results;
    engine.run_into(my_queries, qconfig, results);

    std::lock_guard<std::mutex> lock(mutex);
    for (std::uint64_t i = 0; i < results.size(); ++i) {
      const auto row = results[i];
      dist_results[q_begin + i].assign(row.begin(), row.end());
    }
  });

  const auto gen = data::make_generator(dataset, 4242);
  const data::PointSet points = gen->generate_all(n_points);
  const auto qgen = data::make_generator(dataset, 2424);
  const data::PointSet queries = qgen->generate_all(n_queries);
  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    queries.copy_point(i, q.data());
    const auto expected = baselines::brute_force_knn(points, q, k);
    // Element-wise, order included: both sides sort by (dist², id), so
    // ties must resolve to the same ids in the same positions.
    ASSERT_EQ(dist_results[i], expected)
        << dataset << " ranks=" << ranks << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsRanks, ExactAgreementSweep,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace panda::dist
