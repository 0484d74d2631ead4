// NeighborTable + native flat-path agreement tests (DESIGN.md §9).
//
// The native entry points (query_sq_batch into a table, query_self_batch,
// query_radius_batch, query_sq_into) must be id- and dist²-exact
// against the brute-force oracle across datasets, k values, and both
// bounded and unbounded pruning; batch KNN rows must not depend on the
// order the caller lists its queries in (large batches run in Morton
// order); plus the hot/cold node-layout save/load round trip and the
// refusal of the pre-split format.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/batch_order.hpp"
#include "panda.hpp"

namespace {

using namespace panda;
using core::Neighbor;

constexpr float kInf = std::numeric_limits<float>::infinity();

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Asserts `row` equals the first `count` entries of `want`, id- and
/// dist²-exact.
void expect_prefix(std::span<const Neighbor> row,
                   const std::vector<Neighbor>& want, std::size_t count,
                   std::uint64_t query) {
  ASSERT_EQ(row.size(), count) << "query " << query;
  for (std::size_t j = 0; j < count; ++j) {
    EXPECT_EQ(row[j].id, want[j].id) << "query " << query << " pos " << j;
    EXPECT_EQ(row[j].dist2, want[j].dist2) << "query " << query;
  }
}

struct Agreement : ::testing::TestWithParam<
                       std::tuple<const char*, std::size_t>> {};

TEST_P(Agreement, TableMatchesOracleRows) {
  const auto [dataset, k] = GetParam();
  const std::uint64_t n = 4000;
  const auto gen = data::make_generator(dataset, 777);
  const data::PointSet points = gen->generate_all(n);
  parallel::ThreadPool pool(4);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  std::vector<std::vector<Neighbor>> oracle;
  baselines::brute_force_batch(points, points, k, pool, oracle);
  ASSERT_EQ(oracle.size(), n);

  // Unbounded: native table vs the oracle.
  core::NeighborTable table;
  core::BatchWorkspace ws;
  tree.query_sq_batch(points, k, pool, table, ws);
  ASSERT_EQ(table.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    expect_prefix(table[i], oracle[i], oracle[i].size(), i);
  }

  // The self-join kernel answers the same workload row-for-row.
  core::NeighborTable self_table;
  tree.query_self_batch(k, pool, self_table, ws);
  ASSERT_EQ(self_table.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    expect_prefix(self_table[i], oracle[i], oracle[i].size(), i);
  }

  // Radius-bounded: per-query (r'², k-th id) bounds exactly as the
  // distributed remote stage uses them. The bound is strict under the
  // (dist², id) order, so a bounded row is the oracle row minus its
  // k-th entry.
  std::vector<float> radius2s(n);
  std::vector<std::uint64_t> bound_ids(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(oracle[i].size(), k) << "query " << i;
    radius2s[i] = oracle[i].back().dist2;
    bound_ids[i] = oracle[i].back().id;
  }
  core::NeighborTable bounded;
  tree.query_sq_batch(points, k, pool, bounded, ws, radius2s, bound_ids);
  for (std::uint64_t i = 0; i < n; ++i) {
    expect_prefix(bounded[i], oracle[i], k - 1, i);
  }

  // Single-query native vs the oracle.
  core::QueryWorkspace qws;
  std::vector<Neighbor> out(k);
  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t p = i * (n / 64);
    points.copy_point(p, q.data());
    const std::size_t count = tree.query_sq_into(q, k, kInf, qws, out);
    expect_prefix({out.data(), count}, oracle[p], oracle[p].size(), p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, Agreement,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{32})));

/// n points of `dims` coordinates drawn uniformly from [lo, hi), ids
/// first_id, first_id + 1, ...
data::PointSet uniform_points(std::size_t dims, std::uint64_t n, float lo,
                              float hi, std::uint64_t seed,
                              std::uint64_t first_id = 0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(lo, hi);
  data::PointSet out(dims, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) out.set(i, d, coord(rng));
    out.set_id(i, first_id + i);
  }
  return out;
}

/// Asserts two rows are bit-identical: same ids, same dist² bits.
void expect_same_row(std::span<const Neighbor> got,
                     std::span<const Neighbor> want, std::uint64_t query) {
  ASSERT_EQ(got.size(), want.size()) << "query " << query;
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].id, want[j].id) << "query " << query << " pos " << j;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[j].dist2),
              std::bit_cast<std::uint32_t>(want[j].dist2))
        << "query " << query << " pos " << j;
  }
}

/// query_sq_batch answers `queries` and a seeded shuffle of them with
/// bit-identical rows and stats at every caller position, unbounded
/// and under per-query (k-th dist², k-th id) bounds, and every row
/// matches the brute-force oracle. Batches of at least
/// kOrderedKnnBatch queries run in Morton order, smaller ones in the
/// caller's.
void expect_order_invariant(const data::PointSet& points,
                            const data::PointSet& queries, std::size_t k,
                            int threads) {
  SCOPED_TRACE(::testing::Message()
               << queries.size() << " queries, " << queries.dims()
               << " dims, pool of " << threads);
  parallel::ThreadPool pool(threads);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  std::vector<std::vector<Neighbor>> oracle;
  baselines::brute_force_batch(points, queries, k, pool, oracle);
  const std::uint64_t n = queries.size();
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(0x5eed + n));
  const data::PointSet shuffled = queries.extract(perm);
  std::vector<float> r2(n);
  std::vector<float> r2_shuffled(n);
  std::vector<std::uint64_t> bound_ids(n);
  std::vector<std::uint64_t> bound_ids_shuffled(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(oracle[i].size(), k) << "query " << i;
    r2[i] = oracle[i].back().dist2;
    bound_ids[i] = oracle[i].back().id;
  }
  for (std::uint64_t j = 0; j < n; ++j) {
    r2_shuffled[j] = r2[perm[j]];
    bound_ids_shuffled[j] = bound_ids[perm[j]];
  }
  core::BatchWorkspace ws;
  for (const bool bounded : {false, true}) {
    SCOPED_TRACE(bounded ? "per-query bounds" : "unbounded");
    core::NeighborTable in_order;
    core::NeighborTable in_shuffle;
    core::QueryStats stats_in_order;
    core::QueryStats stats_in_shuffle;
    tree.query_sq_batch(
        queries, k, pool, in_order, ws,
        bounded ? std::span<const float>(r2) : std::span<const float>(),
        bounded ? std::span<const std::uint64_t>(bound_ids)
                : std::span<const std::uint64_t>(),
        core::TraversalPolicy::Exact, &stats_in_order);
    tree.query_sq_batch(
        shuffled, k, pool, in_shuffle, ws,
        bounded ? std::span<const float>(r2_shuffled)
                : std::span<const float>(),
        bounded ? std::span<const std::uint64_t>(bound_ids_shuffled)
                : std::span<const std::uint64_t>(),
        core::TraversalPolicy::Exact, &stats_in_shuffle);
    ASSERT_EQ(in_order.size(), n);
    ASSERT_EQ(in_shuffle.size(), n);
    // A bound is strict under the (dist², id) order: a bounded row is
    // the oracle row minus its k-th entry.
    const std::size_t want = bounded ? k - 1 : k;
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t q = perm[j];
      expect_same_row(in_shuffle[j], in_order[q], q);
      expect_prefix(in_order[q], oracle[q], want, q);
    }
    EXPECT_EQ(stats_in_order.nodes_visited, stats_in_shuffle.nodes_visited);
    EXPECT_EQ(stats_in_order.leaves_visited, stats_in_shuffle.leaves_visited);
    EXPECT_EQ(stats_in_order.points_scanned, stats_in_shuffle.points_scanned);
  }
}

TEST(BatchOrder, LocalRowsDoNotDependOnQueryOrder) {
  const data::PointSet points = uniform_points(3, 2000, 0.0f, 1.0f, 11);
  for (const std::uint64_t n :
       {core::kOrderedKnnBatch - 1, core::kOrderedKnnBatch,
        3 * core::kOrderedKnnBatch + 7}) {
    const data::PointSet queries =
        uniform_points(3, n, 0.0f, 1.0f, 12 + n, 2000);
    for (const int threads : {1, 4}) {
      expect_order_invariant(points, queries, 5, threads);
    }
  }
}

TEST(BatchOrder, LocalDegenerateBatches) {
  const std::uint64_t n = 3 * core::kOrderedKnnBatch + 7;
  const data::PointSet points = uniform_points(3, 2000, 0.0f, 1.0f, 21);
  // Every query the same point: a zero-width box on every dim.
  {
    data::PointSet same(3, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < 3; ++d) same.set(i, d, points.at(17, d));
    }
    expect_order_invariant(points, same, 5, 4);
  }
  // Queries outside the points' box, on both sides of it.
  {
    data::PointSet outside = uniform_points(3, n, 2.0f, 3.0f, 22);
    for (std::uint64_t i = 0; i < n; i += 2) {
      for (std::size_t d = 0; d < 3; ++d) {
        outside.set(i, d, -outside.at(i, d));
      }
    }
    expect_order_invariant(points, outside, 5, 4);
  }
  // Dim 0 at ±FLT_MAX for a third of the points and queries each: the
  // batch's extent on it overflows to +Inf. Distances stay finite
  // between a query and the points on its side (dim 0 differs by 0)
  // and are +Inf across, so every query's k nearest are exact.
  {
    const float big = std::numeric_limits<float>::max();
    data::PointSet wide_points = uniform_points(3, 2100, 0.0f, 1.0f, 23);
    data::PointSet wide_queries = uniform_points(3, n, 0.0f, 1.0f, 24);
    for (std::uint64_t i = 0; i < wide_points.size(); i += 3) {
      wide_points.set(i, 0, big);
      wide_points.set(i + 1, 0, -big);
    }
    for (std::uint64_t i = 0; i + 1 < n; i += 3) {
      wide_queries.set(i, 0, big);
      wide_queries.set(i + 1, 0, -big);
    }
    expect_order_invariant(wide_points, wide_queries, 5, 4);
  }
  // Dims 1 to 33: more dims than the key has bits.
  for (const std::size_t dims : {std::size_t{1}, std::size_t{10},
                                 std::size_t{33}}) {
    expect_order_invariant(uniform_points(dims, 2000, 0.0f, 1.0f, 25),
                           uniform_points(dims, n, 0.0f, 1.0f, 26), 5, 4);
  }
}

TEST(BatchOrder, ScheduleIsAPermutationForAnyCoordinates) {
  // NaN, ±Inf, ±FLT_MAX, denormals, zeros and ordinary values, mixed
  // in every dim, on 4 and 33 dims: the schedule still names every
  // caller position once, keys ascending. Below kOrderedKnnBatch the
  // schedule is empty (the caller's order).
  const float values[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::max(),
                          -std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::denorm_min(),
                          0.0f,
                          0.75f};
  constexpr std::size_t kValues = std::size(values);
  core::BatchWorkspace ws;
  for (const std::size_t dims : {std::size_t{4}, std::size_t{33}}) {
    const std::uint64_t n = 3 * core::kOrderedKnnBatch + 7;
    data::PointSet queries(dims, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        queries.set(i, d, values[(i * 7 + d * 3 + i / kValues) % kValues]);
      }
    }
    const auto order = core::order_knn_batch(queries, ws);
    ASSERT_EQ(order.size(), n);
    std::vector<std::uint64_t> positions;
    for (const std::uint64_t entry : order) {
      positions.push_back(entry & core::kOrderPositionMask);
    }
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end(),
                               [](std::uint64_t a, std::uint64_t b) {
                                 return (a >> 32) < (b >> 32);
                               }));
    std::sort(positions.begin(), positions.end());
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(positions[i], i);

    data::PointSet few(dims, core::kOrderedKnnBatch - 1);
    EXPECT_TRUE(core::order_knn_batch(few, ws).empty());
  }
}

TEST(NeighborTableRadius, BatchMatchesPerQuery) {
  const std::uint64_t n = 2000;
  for (const char* dataset : {"uniform", "gmm", "dupes"}) {
    const auto gen = data::make_generator(dataset, 99);
    const data::PointSet points = gen->generate_all(n);
    parallel::ThreadPool pool(4);
    const core::KdTree tree =
        core::KdTree::build(points, core::BuildConfig{}, pool);

    // Per-query radii varying across the batch.
    std::vector<float> radii(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      radii[i] = 0.02f + 0.08f * static_cast<float>(i % 7) / 7.0f;
    }
    core::NeighborTable table;
    core::BatchWorkspace ws;
    tree.query_radius_batch(points, radii, pool, table, ws);
    ASSERT_EQ(table.size(), n);
    std::vector<float> q(points.dims());
    for (std::uint64_t i = 0; i < n; i += 17) {
      points.copy_point(i, q.data());
      const auto expected = tree.query_radius(q, radii[i]);
      const auto row = table[i];
      ASSERT_EQ(row.size(), expected.size())
          << dataset << " query " << i << " r " << radii[i];
      for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_EQ(row[j].id, expected[j].id);
        EXPECT_EQ(row[j].dist2, expected[j].dist2);
      }
    }
  }
}

TEST(NeighborTableModes, TopkAndRowsBasics) {
  core::NeighborTable t;
  t.reset_topk(3, 2);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.total(), 0u);
  t.slot(1)[0] = {1.0f, 42};
  t.set_count(1, 1);
  t.assign_row(2, std::vector<Neighbor>{{0.5f, 7}, {0.6f, 8}});
  EXPECT_EQ(t.count(0), 0u);
  EXPECT_EQ(t.count(1), 1u);
  EXPECT_EQ(t[1][0].id, 42u);
  EXPECT_EQ(t[2][1].id, 8u);
  EXPECT_EQ(t.total(), 3u);
  const auto vecs = t.to_vectors();
  ASSERT_EQ(vecs.size(), 3u);
  EXPECT_TRUE(vecs[0].empty());
  EXPECT_EQ(vecs[2][0].id, 7u);

  t.reset_rows(2);
  t.append_row(0, std::vector<Neighbor>{{0.1f, 1}, {0.2f, 2}, {0.3f, 3}});
  t.append_row(1, {});
  EXPECT_EQ(t.count(0), 3u);
  EXPECT_EQ(t.count(1), 0u);
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t[0][2].id, 3u);

  // Mode resets reuse the table freely.
  t.reset_topk(1, 4);
  t.assign_row(0, std::vector<Neighbor>{{9.0f, 9}});
  EXPECT_EQ(t[0][0].id, 9u);
}

TEST(KdTreeFormatV2, SaveLoadRoundTripIsBitIdentical) {
  const std::uint64_t n = 5000;
  const auto gen = data::make_generator("gmm", 31337);
  const data::PointSet points = gen->generate_all(n);
  parallel::ThreadPool pool(4);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  const std::string path = temp_path("panda_v2_roundtrip.kdt");
  tree.save(path);
  const core::KdTree loaded = core::KdTree::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.size(), tree.size());
  EXPECT_EQ(loaded.stats().nodes, tree.stats().nodes);
  EXPECT_EQ(loaded.stats().leaves, tree.stats().leaves);

  // Bit-identical query results on all native paths, including the
  // self-join kernel (exercises the serialized leaf-node and slot
  // maps).
  core::NeighborTable a;
  core::NeighborTable b;
  core::BatchWorkspace ws;
  tree.query_sq_batch(points, 6, pool, a, ws);
  loaded.query_sq_batch(points, 6, pool, b, ws);
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto ra = a[i];
    const auto rb = b[i];
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].id, rb[j].id);
      EXPECT_EQ(ra[j].dist2, rb[j].dist2);
    }
  }
  core::NeighborTable sa;
  core::NeighborTable sb;
  tree.query_self_batch(6, pool, sa, ws);
  loaded.query_self_batch(6, pool, sb, ws);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto ra = sa[i];
    const auto rb = sb[i];
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].id, rb[j].id);
    }
  }
}

TEST(KdTreeFormatV2, RefusesVersion1Files) {
  // A version-1 header prefix: magic + version at the same offsets as
  // every format revision. The loader must identify it as the old
  // format, not as garbage.
  const std::string path = temp_path("panda_v1_refusal.kdt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint64_t magic = 0x50414e44414b4454ULL;  // "PANDAKDT"
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::vector<char> padding(256, '\0');
    out.write(padding.data(),
              static_cast<std::streamsize>(padding.size()));
  }
  try {
    (void)core::KdTree::load(path);
    std::remove(path.c_str());
    FAIL() << "version-1 file must be refused";
  } catch (const panda::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    std::remove(path.c_str());
  }
}

TEST(KdTreeFormatV2, RefusesForeignFiles) {
  const std::string path = temp_path("panda_not_a_tree.kdt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::vector<char> junk(64, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_THROW((void)core::KdTree::load(path), panda::Error);
  std::remove(path.c_str());
}

}  // namespace
