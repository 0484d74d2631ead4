// Tests for the PANDA local kd-tree: construction invariants, exact
// KNN against the brute-force oracle across datasets/k/threads/bucket
// sizes, radius queries, duplicate robustness, determinism, and the
// paper-formula traversal policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "baselines/brute_force.hpp"
#include "common/rng.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "index_bytes.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

using data::PointSet;

void expect_same_distances(const std::vector<Neighbor>& actual,
                           const std::vector<Neighbor>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    // Distances are computed with identical float operation order in
    // both paths, so they must match exactly.
    ASSERT_EQ(actual[i].dist2, expected[i].dist2)
        << context << " rank " << i;
  }
  // Where distances are unique, ids must agree too. The last entry is
  // exempt: it can tie with the (k+1)-th point, which is outside the
  // returned list and invisible here.
  for (std::size_t i = 0; i + 1 < actual.size(); ++i) {
    const bool tied_prev =
        i > 0 && expected[i].dist2 == expected[i - 1].dist2;
    const bool tied_next = expected[i].dist2 == expected[i + 1].dist2;
    if (!tied_prev && !tied_next) {
      ASSERT_EQ(actual[i].id, expected[i].id) << context << " rank " << i;
    }
  }
}

TEST(KdTreeBuild, EmptyTree) {
  parallel::ThreadPool pool(2);
  const PointSet points(3);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.query(std::vector<float>{0, 0, 0}, 3).empty());
}

TEST(KdTreeBuild, SinglePoint) {
  parallel::ThreadPool pool(2);
  PointSet points(3);
  points.push_point(std::vector<float>{1, 2, 3}, 99);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  EXPECT_EQ(tree.size(), 1u);
  const auto result = tree.query(std::vector<float>{0, 0, 0}, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 99u);
  EXPECT_FLOAT_EQ(result[0].dist2, 1 + 4 + 9);
}

TEST(KdTreeBuild, StatsAreConsistent) {
  parallel::ThreadPool pool(4);
  const auto gen = data::make_generator("gmm", 3);
  const PointSet points = gen->generate_all(10000);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const TreeStats& stats = tree.stats();
  EXPECT_EQ(stats.points, 10000u);
  EXPECT_GT(stats.leaves, 10000u / 64);
  EXPECT_EQ(stats.nodes, 2 * stats.leaves - 1);  // full binary tree
  EXPECT_GE(stats.max_depth, 8u);
  EXPECT_LT(stats.max_depth, 64u);
  EXPECT_GT(stats.mean_leaf_fill, 0.2);
  EXPECT_LE(stats.mean_leaf_fill, 1.0);
}

TEST(KdTreeBuild, AllPointIdsSurviveInPackedStorage) {
  parallel::ThreadPool pool(4);
  const auto gen = data::make_generator("cosmo", 5);
  const PointSet points = gen->generate_all(5000);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  // Query k=1 with each original point: its own id must be the answer
  // at distance 0 (ids unique, coordinates possibly duplicated - then
  // distance 0 still required).
  std::vector<float> q(3);
  for (std::uint64_t i = 0; i < points.size(); i += 97) {
    points.copy_point(i, q.data());
    const auto result = tree.query(q, 1);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].dist2, 0.0f);
  }
}

TEST(KdTreeBuild, DeterministicAcrossThreadCounts) {
  const auto gen = data::make_generator("plasma", 11);
  const PointSet points = gen->generate_all(20000);
  const PointSet queries = gen->generate_all(50);

  std::vector<std::vector<std::vector<Neighbor>>> all_results;
  for (const int threads : {1, 3, 8}) {
    parallel::ThreadPool pool(threads);
    const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
    core::NeighborTable results;
    core::BatchWorkspace ws;
    tree.query_batch(queries, 5, pool, results, ws);
    all_results.push_back(results.to_vectors());
  }
  // The (dist², id) total order makes every row unique, so exactness
  // implies identical rows, ids included, whatever the thread count.
  for (std::size_t t = 1; t < all_results.size(); ++t) {
    for (std::size_t i = 0; i < all_results[0].size(); ++i) {
      ASSERT_EQ(all_results[t][i], all_results[0][i])
          << "threads variant " << t << " query " << i;
    }
  }
}

TEST(KdTreeBuild, PoolSizeDoesNotChangeTheSavedTree) {
  // Below serial_split_threshold every split is decided serially:
  // phase-1 batches and phase-2 subtrees run the same decision, on
  // disjoint index ranges in parallel. So the tree, and the saved
  // file, do not depend on the pool size.
  const auto gen = data::make_generator("plasma", 11);
  const PointSet points = gen->generate_all(20000);
  ASSERT_LT(points.size(), BuildConfig{}.serial_split_threshold);
  std::vector<std::vector<char>> files;
  for (const int threads : {1, 3, 8}) {
    parallel::ThreadPool pool(threads);
    const std::string path = ::testing::TempDir() + "/panda_pool_" +
                             std::to_string(threads) + ".kdt";
    KdTree::build(points, BuildConfig{}, pool).save(path);
    files.push_back(testing::read_bytes(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[1] == files[0]) << "pool of 3 vs pool of 1";
  EXPECT_TRUE(files[2] == files[0]) << "pool of 8 vs pool of 1";
}

class KdTreeExactnessSweep
    : public ::testing::TestWithParam<
          std::tuple<const char*, std::size_t, int>> {};

TEST_P(KdTreeExactnessSweep, MatchesBruteForce) {
  const auto [name, k, threads] = GetParam();
  const auto gen = data::make_generator(name, 17);
  const PointSet points = gen->generate_all(4000);
  const PointSet queries = gen->generate_all(200);

  parallel::ThreadPool pool(threads);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);

  std::vector<std::vector<Neighbor>> expected;
  baselines::brute_force_batch(points, queries, k, pool, expected);
  core::NeighborTable actual_table;
  core::BatchWorkspace ws;
  tree.query_batch(queries, k, pool, actual_table, ws);
  const auto actual = actual_table.to_vectors();

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    expect_same_distances(actual[i], expected[i],
                          std::string(name) + " query " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsKsThreads, KdTreeExactnessSweep,
    ::testing::Combine(::testing::Values("uniform", "gmm", "cosmo", "plasma",
                                         "dayabay", "sdss10", "sdss15"),
                       ::testing::Values(1, 5, 32),
                       ::testing::Values(1, 4)));

class BucketSizeSweep
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint32_t>> {
};

TEST_P(BucketSizeSweep, ExactForAnyBucketSize) {
  // Buckets past 64 points drive multi-word lane masks through the leaf
  // scan, and dayabay's 10 dims take the out-of-line, ISA-dispatched
  // kernel; the single-query and both batch entry points must still
  // match the oracle.
  const auto [dataset, bucket] = GetParam();
  const auto gen = data::make_generator(dataset, 23);
  const PointSet points = gen->generate_all(3000);
  const PointSet queries = gen->generate_all(100);
  const std::size_t k = 5;
  parallel::ThreadPool pool(4);
  BuildConfig config;
  config.bucket_size = bucket;
  const KdTree tree = KdTree::build(points, config, pool);
  const std::string context =
      std::string(dataset) + " bucket=" + std::to_string(bucket);

  std::vector<std::vector<Neighbor>> expected;
  baselines::brute_force_batch(points, queries, k, pool, expected);
  core::NeighborTable table;
  core::BatchWorkspace ws;
  tree.query_sq_batch(queries, k, pool, table, ws);
  const auto batched = table.to_vectors();
  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_same_distances(tree.query(q, k), expected[i],
                          context + " query " + std::to_string(i));
    expect_same_distances(batched[i], expected[i],
                          context + " batch query " + std::to_string(i));
  }

  std::vector<std::vector<Neighbor>> expected_self;
  baselines::brute_force_batch(points, points, k, pool, expected_self);
  tree.query_self_batch(k, pool, table, ws);
  const auto self = table.to_vectors();
  ASSERT_EQ(self.size(), points.size()) << context;
  for (std::uint64_t i = 0; i < points.size(); ++i) {
    expect_same_distances(self[i], expected_self[i],
                          context + " self " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Buckets, BucketSizeSweep,
    ::testing::Combine(::testing::Values("cosmo", "dayabay"),
                       ::testing::Values(1, 2, 8, 16, 32, 64, 256)));

TEST(KdTreeQuery, KLargerThanNReturnsAllPoints) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("uniform", 29);
  const PointSet points = gen->generate_all(10);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const auto result = tree.query(std::vector<float>{0.5f, 0.5f, 0.5f}, 50);
  EXPECT_EQ(result.size(), 10u);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.dist2 < b.dist2;
                             }));
}

TEST(KdTreeQuery, RadiusLimitsResults) {
  parallel::ThreadPool pool(2);
  PointSet points(1);
  for (int i = 0; i < 10; ++i) {
    points.push_point(std::vector<float>{static_cast<float>(i)},
                      static_cast<std::uint64_t>(i));
  }
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  // Query at 0 with radius 2.5: points 0,1,2 qualify.
  const auto result = tree.query(std::vector<float>{0.0f}, 10, 2.5f);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_EQ(result[1].id, 1u);
  EXPECT_EQ(result[2].id, 2u);
}

TEST(KdTreeQuery, RadiusIsStrict) {
  parallel::ThreadPool pool(1);
  PointSet points(1);
  points.push_point(std::vector<float>{3.0f}, 0);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  // Point exactly at distance == radius is excluded (r' semantics:
  // remote candidates must beat the owner's k-th distance).
  EXPECT_TRUE(tree.query(std::vector<float>{0.0f}, 1, 3.0f).empty());
  EXPECT_EQ(tree.query(std::vector<float>{0.0f}, 1, 3.1f).size(), 1u);
}

TEST(KdTreeQuery, RadiusQueryMatchesFilteredBruteForce) {
  parallel::ThreadPool pool(4);
  const auto gen = data::make_generator("gmm", 31);
  const PointSet points = gen->generate_all(3000);
  const PointSet queries = gen->generate_all(50);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const float radius = 0.05f;
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    auto expected = baselines::brute_force_knn(points, q, 8);
    std::erase_if(expected, [&](const Neighbor& n) {
      return n.dist2 >= radius * radius;
    });
    const auto actual = tree.query(q, 8, radius);
    expect_same_distances(actual, expected, "radius query " + std::to_string(i));
  }
}

TEST(KdTreeQuery, BatchedQueriesMatchPerQueryExactly) {
  // query_sq_batch reorders queries into bucket-contiguous groups and
  // primes each heap with its home leaf; results must still be
  // bit-identical to the per-query path — including on duplicate-heavy
  // data where the tie order matters, and with per-query radius
  // bounds.
  parallel::ThreadPool pool(4);
  for (const char* dataset : {"uniform", "dupes"}) {
    const auto gen = data::make_generator(dataset, 61);
    const PointSet points = gen->generate_all(4000);
    const PointSet queries = gen->generate_all(300);
    const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
    const std::size_t k = 7;

    core::NeighborTable batched_table;
    core::BatchWorkspace ws;
    tree.query_sq_batch(queries, k, pool, batched_table, ws);
    const auto batched = batched_table.to_vectors();
    ASSERT_EQ(batched.size(), queries.size());
    std::vector<float> q(points.dims());
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, q.data());
      ASSERT_EQ(batched[i], tree.query_sq(q, k,
                                          std::numeric_limits<float>::infinity()))
          << dataset << " query " << i;
    }

    // Radius-limited: per-query (radius², bound id) pairs, as the
    // coalesced remote pass uses them.
    std::vector<float> radius2(queries.size());
    std::vector<std::uint64_t> bound_ids(queries.size());
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      radius2[i] = batched[i][std::min<std::size_t>(2, batched[i].size() - 1)]
                       .dist2;
      bound_ids[i] = (i % 3 == 0) ? ~std::uint64_t{0} : batched[i].back().id;
    }
    core::NeighborTable bounded_table;
    tree.query_sq_batch(queries, k, pool, bounded_table, ws, radius2,
                        bound_ids);
    const auto bounded = bounded_table.to_vectors();
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, q.data());
      ASSERT_EQ(bounded[i],
                tree.query_sq(q, k, radius2[i], TraversalPolicy::Exact,
                              nullptr, bound_ids[i]))
          << dataset << " bounded query " << i;
    }
  }
}

TEST(KdTreeQuery, HeavyDuplicatesStillExact) {
  // dayabay-style co-location: thousands of identical records must not
  // break construction (positional-median fallback) or querying.
  parallel::ThreadPool pool(4);
  PointSet points(2);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const float v = static_cast<float>(i % 3);  // only 3 distinct points
    points.push_point(std::vector<float>{v, v}, i);
  }
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  EXPECT_EQ(tree.size(), 3000u);
  const auto result = tree.query(std::vector<float>{0.1f, 0.1f}, 10);
  ASSERT_EQ(result.size(), 10u);
  for (const auto& n : result) {
    EXPECT_FLOAT_EQ(n.dist2, 2 * 0.1f * 0.1f);
    EXPECT_EQ(n.id % 3, 0u);  // all nearest are copies of (0,0)
  }
}

TEST(KdTreeQuery, AllPointsIdentical) {
  parallel::ThreadPool pool(4);
  PointSet points(3);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    points.push_point(std::vector<float>{1.0f, 1.0f, 1.0f}, i);
  }
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const auto result = tree.query(std::vector<float>{1.0f, 1.0f, 1.0f}, 5);
  ASSERT_EQ(result.size(), 5u);
  for (const auto& n : result) EXPECT_EQ(n.dist2, 0.0f);
}

/// Input for the live-forest entry points (offer_knn, append_radius):
/// `points` split into a tree over the first `tree_n` points and an
/// "elsewhere" remainder, with every third tree id dead.
struct ForestSlice {
  PointSet tree_points;
  PointSet elsewhere;
  PointSet live;
  std::vector<std::uint64_t> dead;

  ForestSlice(const PointSet& points, std::uint64_t tree_n)
      : tree_points(points.dims()),
        elsewhere(points.dims()),
        live(points.dims()) {
    std::vector<float> p(points.dims());
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      points.copy_point(i, p.data());
      const std::uint64_t id = points.id(i);
      if (i < tree_n) {
        tree_points.push_point(p, id);
        if (i % 3 == 0) {
          dead.push_back(id);
          continue;
        }
      } else {
        elsewhere.push_point(p, id);
      }
      live.push_point(p, id);
    }
    std::sort(dead.begin(), dead.end());
  }
};

TEST(KdTreeQuery, OfferKnnFeedsAHeapHoldingOtherCandidates) {
  // offer_knn neither resets nor drains the heap it is given (here the
  // workspace's own, as the forest passes it) and skips dead ids at
  // admission: the heap ends as the top-k of the live points of both
  // sources. dupes data puts many lanes exactly at the bound.
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("dupes", 71);
  const ForestSlice slice(gen->generate_all(3000), 2400);
  const KdTree tree = KdTree::build(slice.tree_points, BuildConfig{}, pool);
  PointSet queries(gen->dims());
  gen->generate(3000, 3040, queries);  // most sit on a duplicate site
  QueryWorkspace ws;
  std::vector<float> q(queries.dims());
  std::vector<Neighbor> got;
  for (const std::size_t k : {1, 5, 32}) {
    for (std::uint64_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, q.data());
      ws.heap.reset(k);
      for (const Neighbor& n : baselines::brute_force_knn(slice.elsewhere, q, k)) {
        ws.heap.offer(n.dist2, n.id);
      }
      tree.offer_knn(q, ws.heap, ws, slice.dead);
      got = ws.heap.take_sorted();
      const auto expected = baselines::brute_force_knn(slice.live, q, k);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j], expected[j]) << "k=" << k << " query " << i
                                       << " rank " << j;
      }
    }
  }
}

/// The first bucket a KNN descent opens is scanned under an unbounded
/// heap, so for k up to simd::kUnrolledSelect scan_leaf offers its k
/// nearest lanes first and then the lanes up to the bound that pass
/// leaves. That second pass runs only when dead ids were skipped among
/// those k nearest, and it is what keeps such a query exact. Each query
/// sits on a tree point, so its home bucket holds its nearest ids; the
/// dead list takes the nearest and the third nearest. The carried heap
/// (up to k - 1 entries from elsewhere, half of them beyond every
/// bucket lane the answer needs) never reaches the second pass on its
/// own: the first pass fills the heap with a bound at most the bucket's
/// k-th lane. It checks that a part-full heap stays exact. k above
/// kUnrolledSelect checks the scan that offers every lane.
TEST(KdTreeQuery, FirstBucketStaysExactWithDeadNearestAndACarriedHeap) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("uniform", 83);
  const PointSet points = gen->generate_all(4000);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  QueryWorkspace ws;
  std::vector<float> q(points.dims());
  constexpr std::uint64_t kElsewhere = 1u << 30;  // ids outside the tree
  for (const std::size_t k : {1, 2, 5, 8, 9, 16, 31}) {
    for (std::uint64_t i = 0; i < points.size(); i += 37) {
      points.copy_point(i, q.data());
      const std::vector<Neighbor> all =
          baselines::brute_force_knn(points, q, k + 3);
      for (const bool carry : {false, true}) {
        for (const bool kill : {false, true}) {
          std::vector<std::uint64_t> dead;
          if (kill) dead = {all[0].id, all[2].id};
          std::sort(dead.begin(), dead.end());
          std::vector<Neighbor> expected;
          for (const Neighbor& n : all) {
            if (!std::binary_search(dead.begin(), dead.end(), n.id)) {
              expected.push_back(n);
            }
          }
          ws.heap.reset(k);
          if (carry) {
            // Half just past the k-th live answer, half inside it.
            const float far = expected[k - 1].dist2 * 1.5f + 1e-6f;
            for (std::uint64_t c = 0; c + 1 < k; ++c) {
              const Neighbor n{c % 2 == 0 ? far : expected[0].dist2,
                               kElsewhere + c};
              ws.heap.offer(n.dist2, n.id);
              expected.push_back(n);
            }
          }
          std::sort(expected.begin(), expected.end());
          expected.resize(k);
          tree.offer_knn(q, ws.heap, ws, dead);
          const std::vector<Neighbor> got = ws.heap.take_sorted();
          ASSERT_EQ(got, expected) << "k=" << k << " query point " << i
                                   << " carry " << carry << " kill " << kill;
        }
      }
    }
  }
}

TEST(KdTreeQuery, AppendRadiusAppendsUnsortedLiveRows) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("dupes", 73);
  const ForestSlice slice(gen->generate_all(2000), 2000);
  const KdTree tree = KdTree::build(slice.tree_points, BuildConfig{}, pool);
  PointSet queries(gen->dims());
  gen->generate(2000, 2030, queries);  // most sit on a duplicate site
  QueryWorkspace ws;
  std::vector<float> q(queries.dims());
  const std::vector<Neighbor> prefix{{9.0f, 900}, {1.0f, 100}, {5.0f, 500}};
  const float radius = 0.05f;
  std::size_t total = 0;
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    std::vector<Neighbor> out = prefix;
    tree.append_radius(q, radius, ws, out, slice.dead);
    // The rows already there keep their (unsorted) order: the call
    // appends and sorts nothing.
    ASSERT_GE(out.size(), prefix.size());
    ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    std::vector<Neighbor> appended(out.begin() + prefix.size(), out.end());
    for (const Neighbor& n : appended) {
      ASSERT_FALSE(std::binary_search(slice.dead.begin(), slice.dead.end(),
                                      n.id))
          << "dead id " << n.id << " returned";
    }
    std::sort(appended.begin(), appended.end());
    auto expected = baselines::brute_force_knn(slice.live, q, slice.live.size());
    std::erase_if(expected, [&](const Neighbor& n) {
      return !(n.dist2 < radius * radius);
    });
    ASSERT_EQ(appended, expected) << "query " << i;
    total += appended.size();
  }
  EXPECT_GT(total, 0u);
}

TEST(KdTreeQuery, QueryStatsPopulated) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("uniform", 37);
  const PointSet points = gen->generate_all(10000);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  QueryStats stats;
  tree.query(std::vector<float>{0.5f, 0.5f, 0.5f}, 5,
             std::numeric_limits<float>::infinity(), TraversalPolicy::Exact,
             &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.leaves_visited, 0u);
  EXPECT_GT(stats.points_scanned, 0u);
  // A kd-tree query must scan far fewer points than the dataset.
  EXPECT_LT(stats.points_scanned, 2000u);
}

TEST(KdTreeQuery, PaperPolicyReturnsKSortedCandidates) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("cosmo", 41);
  const PointSet points = gen->generate_all(5000);
  const PointSet queries = gen->generate_all(100);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    const auto result = tree.query(q, 5,
                                   std::numeric_limits<float>::infinity(),
                                   TraversalPolicy::PaperFormula);
    ASSERT_EQ(result.size(), 5u);
    EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                               [](const Neighbor& a, const Neighbor& b) {
                                 return a.dist2 < b.dist2;
                               }));
  }
}

TEST(KdTreeQuery, PaperPolicyHighRecallOnSmoothData) {
  // The printed Algorithm 1 bound can over-prune in principle; on
  // typical data its recall should still be essentially 1. Measure it.
  parallel::ThreadPool pool(4);
  const auto gen = data::make_generator("uniform", 43);
  const PointSet points = gen->generate_all(20000);
  const PointSet queries = gen->generate_all(300);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  std::uint64_t hits = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    const auto exact = tree.query(q, 5);
    const auto paper = tree.query(q, 5,
                                  std::numeric_limits<float>::infinity(),
                                  TraversalPolicy::PaperFormula);
    std::multiset<float> exact_d;
    for (const auto& n : exact) exact_d.insert(n.dist2);
    for (const auto& n : paper) {
      const auto it = exact_d.find(n.dist2);
      if (it != exact_d.end()) {
        exact_d.erase(it);
        ++hits;
      }
    }
    total += exact.size();
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.99);
}

TEST(KdTreeQuery, PathDepthMatchesStatsBounds) {
  parallel::ThreadPool pool(2);
  const auto gen = data::make_generator("gmm", 47);
  const PointSet points = gen->generate_all(8000);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const PointSet queries = gen->generate_all(50);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    const std::uint32_t depth = tree.path_depth(q);
    EXPECT_GE(depth, 2u);
    EXPECT_LE(depth, tree.stats().max_depth);
  }
}

TEST(KdTreeBuild, BreakdownSumsToPositiveTime) {
  parallel::ThreadPool pool(4);
  const auto gen = data::make_generator("cosmo", 53);
  const PointSet points = gen->generate_all(50000);
  BuildBreakdown breakdown;
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool, &breakdown);
  EXPECT_EQ(tree.size(), 50000u);
  EXPECT_GT(breakdown.total(), 0.0);
  EXPECT_GE(breakdown.data_parallel, 0.0);
  EXPECT_GE(breakdown.thread_parallel, 0.0);
  EXPECT_GE(breakdown.simd_packing, 0.0);
}

TEST(KdTreeBuild, SubintervalToggleGivesSameTree) {
  const auto gen = data::make_generator("plasma", 59);
  const PointSet points = gen->generate_all(30000);
  parallel::ThreadPool pool(4);
  BuildConfig fast;
  fast.use_subinterval_search = true;
  BuildConfig slow;
  slow.use_subinterval_search = false;
  const KdTree a = KdTree::build(points, fast, pool);
  const KdTree b = KdTree::build(points, slow, pool);
  // Same splits -> same stats; queries agree exactly.
  EXPECT_EQ(a.stats().nodes, b.stats().nodes);
  EXPECT_EQ(a.stats().max_depth, b.stats().max_depth);
  const PointSet queries = gen->generate_all(50);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    std::vector<float> q(3);
    queries.copy_point(i, q.data());
    expect_same_distances(a.query(q, 5), b.query(q, 5), "toggle");
  }
}

}  // namespace
}  // namespace panda::core
