// NeighborTable + native flat-path agreement tests (DESIGN.md §9).
//
// The native entry points (query_sq_batch into a table, query_self_batch,
// query_radius_batch, query_sq_into) must be id- and dist²-exact
// against the brute-force oracle across datasets, k values, and both
// bounded and unbounded pruning; plus the hot/cold node-layout
// save/load round trip and the refusal of the pre-split format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

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
