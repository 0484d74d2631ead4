// Umbrella audit: panda.hpp must pull in every public header of the
// tree and compile standalone (this translation unit includes nothing
// from src/ besides the umbrella itself). The tests touch one symbol
// from each layer so a header that stops exporting its API is caught
// here rather than by a downstream user.
#include "panda.hpp"

#include <gtest/gtest.h>

namespace panda {
namespace {

TEST(Umbrella, EveryLayerIsReachable) {
  // common
  Rng rng(1);
  EXPECT_LT(rng.uniform(), 1.0);
  WallTimer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  // data
  const data::PointSet points(3);
  EXPECT_EQ(points.dims(), 3u);
  // core
  core::KnnHeap heap(2);
  heap.offer(1.0f, 7);
  EXPECT_EQ(heap.size(), 1u);
  // simd
  EXPECT_GE(simd::padded_count(5), 5u);
  // parallel
  parallel::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  // net (including the mailbox, which panda.hpp once omitted)
  net::Message message;
  EXPECT_EQ(message.source, -1);
  net::ClusterConfig config;
  EXPECT_EQ(config.ranks, 1);
  // dist
  const dist::GlobalTree tree = dist::GlobalTree::from_records(1, 3, {});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(dist::balanced_destination(0, 4, 2, 2), 2);
  const dist::DistQueryConfig qconfig;
  EXPECT_EQ(qconfig.batch_size, 256u);
  const dist::RadiusQueryConfig rconfig;
  EXPECT_EQ(rconfig.radius, 0.0f);
  // ml
  ml::DisjointSets sets(2);
  EXPECT_TRUE(sets.unite(0, 1));
  // baselines
  const data::PointSet empty(1);
  EXPECT_TRUE(
      baselines::brute_force_knn(empty, std::vector<float>{0.0f}, 1).empty());
}

TEST(Umbrella, SingleNodeQuickstartShape) {
  // A miniature of examples/quickstart.cpp: generate, build, query.
  const auto generator = data::make_generator("cosmo", 42);
  const data::PointSet points = generator->generate_all(2000);
  parallel::ThreadPool pool(2);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  const auto neighbors =
      tree.query(std::vector<float>{0.5f, 0.5f, 0.5f}, 3);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_LE(neighbors[0].dist2, neighbors[2].dist2);
}

}  // namespace
}  // namespace panda
