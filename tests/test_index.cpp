// The panda::Index facade (DESIGN.md §10): every adapter — local,
// distributed at ranks {1, 2, 4}, and the baselines — must return
// id-exact, element-for-element oracle results through the one search
// interface, across datasets {uniform, gmm, dupes} x k {1, 5, 32};
// plus the error paths (bad options, wrong-dim queries, refused
// version-1 files) and the save/open round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/index.hpp"
#include "baselines/brute_force.hpp"
#include "common/error.hpp"
#include "data/generators.hpp"
#include "ml/knn_classifier.hpp"

namespace {

using namespace panda;
using core::Neighbor;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Every adapter configuration under test. Dist rank counts cover the
/// single-rank fast path, the smallest real cluster, and a wider one.
std::vector<std::pair<std::string, IndexOptions>> adapter_matrix() {
  std::vector<std::pair<std::string, IndexOptions>> out;
  {
    IndexOptions o;
    o.threads = 2;
    out.emplace_back("local", o);
  }
  for (const int ranks : {1, 2, 4}) {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Dist;
    o.cluster.ranks = ranks;
    out.emplace_back("dist-r" + std::to_string(ranks), o);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::BruteForce;
    out.emplace_back("brute-force", o);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::SimpleTree;
    out.emplace_back("simple-tree", o);
  }
  {
    // Small buffer + fan-in so mid-size builds take the seed-tree path
    // and small ones stay run-buffered — both forest shapes answer
    // through the same matrix.
    IndexOptions o;
    o.engine = IndexOptions::Engine::Mutable;
    o.threads = 2;
    o.mutable_config.buffer_capacity = 128;
    o.mutable_config.merge_fan_in = 2;
    out.emplace_back("mutable", o);
  }
  return out;
}

void expect_row_equals(std::span<const Neighbor> actual,
                       const std::vector<Neighbor>& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t j = 0; j < actual.size(); ++j) {
    EXPECT_EQ(actual[j].id, expected[j].id) << context << " pos " << j;
    EXPECT_EQ(actual[j].dist2, expected[j].dist2) << context << " pos " << j;
  }
}

struct FacadeSweep : ::testing::TestWithParam<
                         std::tuple<const char*, std::size_t>> {};

TEST_P(FacadeSweep, EveryAdapterMatchesOracleIdExactly) {
  const auto [dataset, k] = GetParam();
  const std::uint64_t n = 900;
  const std::uint64_t n_queries = 40;
  const auto gen = data::make_generator(dataset, 20260728);
  const data::PointSet points = gen->generate_all(n);
  data::PointSet queries(gen->dims());
  gen->generate(n, n + n_queries, queries);  // disjoint ids

  // Oracle rows once per (dataset, k).
  std::vector<std::vector<Neighbor>> expected(n_queries);
  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < n_queries; ++i) {
    queries.copy_point(i, q.data());
    expected[i] = baselines::brute_force_knn(points, q, k);
  }

  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    EXPECT_EQ(index->size(), n) << name;
    EXPECT_EQ(index->dims(), points.dims()) << name;

    SearchParams params;
    params.k = k;
    core::NeighborTable results;
    SearchWorkspace ws;
    index->knn_into(queries, params, results, ws);
    ASSERT_EQ(results.size(), n_queries) << name;
    for (std::uint64_t i = 0; i < n_queries; ++i) {
      expect_row_equals(results[i], expected[i],
                        name + " knn query " + std::to_string(i));
    }

    // Single-query convenience shim, same contract.
    queries.copy_point(0, q.data());
    const auto shim = index->knn(q, k);
    expect_row_equals(shim, expected[0], name + " knn() shim");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, FacadeSweep,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{32})));

TEST(FacadeRadius, EveryAdapterMatchesOraclePrefix) {
  const std::uint64_t n = 700;
  const std::uint64_t n_queries = 30;
  for (const char* dataset : {"gmm", "dupes"}) {
    const auto gen = data::make_generator(dataset, 515);
    const data::PointSet points = gen->generate_all(n);
    data::PointSet queries(gen->dims());
    gen->generate(n, n + n_queries, queries);

    // Varying per-query radii (the serving backend's shape).
    std::vector<float> radii(n_queries);
    for (std::uint64_t i = 0; i < n_queries; ++i) {
      radii[i] = 0.02f + 0.05f * static_cast<float>(i % 5);
    }
    // Oracle: strict dist² < r² prefix of the all-points row.
    std::vector<std::vector<Neighbor>> expected(n_queries);
    std::vector<float> q(points.dims());
    for (std::uint64_t i = 0; i < n_queries; ++i) {
      queries.copy_point(i, q.data());
      auto all = baselines::brute_force_knn(points, q, n);
      const float r2 = radii[i] * radii[i];
      std::size_t keep = 0;
      while (keep < all.size() && all[keep].dist2 < r2) ++keep;
      all.resize(keep);
      expected[i] = std::move(all);
    }

    for (const auto& [name, options] : adapter_matrix()) {
      auto index = Index::build(points, options);
      core::NeighborTable results;
      SearchWorkspace ws;
      index->radius_into(queries, radii, results, ws);
      ASSERT_EQ(results.size(), n_queries) << name;
      for (std::uint64_t i = 0; i < n_queries; ++i) {
        expect_row_equals(results[i], expected[i],
                          std::string(dataset) + " " + name + " radius " +
                              std::to_string(i));
      }

      // Uniform-radius convenience overload = per-query at one value.
      SearchParams params;
      params.radius = radii[0];
      index->radius_into(queries, params, results, ws);
      queries.copy_point(0, q.data());
      const auto single = index->radius_search(q, radii[0]);
      expect_row_equals(results[0], single, name + " uniform radius");
    }
  }
}

TEST(FacadeSelfKnn, RowsKeyedByBuildPositionOnEveryAdapter) {
  const std::uint64_t n = 500;
  const std::size_t k = 4;
  for (const char* dataset : {"uniform", "dupes"}) {
    const auto gen = data::make_generator(dataset, 616);
    const data::PointSet points = gen->generate_all(n);

    std::vector<std::vector<Neighbor>> expected(n);
    std::vector<float> q(points.dims());
    for (std::uint64_t i = 0; i < n; ++i) {
      points.copy_point(i, q.data());
      expected[i] = baselines::brute_force_knn(points, q, k);
    }

    for (const auto& [name, options] : adapter_matrix()) {
      auto index = Index::build(points, options);
      SearchParams params;
      params.k = k;
      core::NeighborTable results;
      SearchWorkspace ws;
      SearchStats stats;
      index->self_knn_into(params, results, ws, &stats);
      ASSERT_EQ(results.size(), n) << name;
      EXPECT_EQ(stats.queries, n) << name;
      for (std::uint64_t i = 0; i < n; ++i) {
        expect_row_equals(results[i], expected[i],
                          std::string(dataset) + " " + name + " self " +
                              std::to_string(i));
      }
    }
  }
}

TEST(FacadeSelfKnn, NonIdentityIdsStillKeyRowsByBuildPosition) {
  // Sparse, shuffled-looking ids (the plasma filtered-subset shape):
  // the Dist adapter must route redistributed answers back through
  // its id -> position map, not assume id == position.
  const std::uint64_t n = 300;
  const std::size_t k = 3;
  const auto gen = data::make_generator("gmm", 99);
  const data::PointSet raw = gen->generate_all(n);
  data::PointSet points(raw.dims());
  std::vector<float> q(raw.dims());
  for (std::uint64_t i = 0; i < n; ++i) {
    raw.copy_point(i, q.data());
    points.push_point(q, i * 7 + 1000);  // sparse, non-identity ids
  }

  std::vector<std::vector<Neighbor>> expected(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    points.copy_point(i, q.data());
    expected[i] = baselines::brute_force_knn(points, q, k);
  }

  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    SearchParams params;
    params.k = k;
    core::NeighborTable results;
    SearchWorkspace ws;
    index->self_knn_into(params, results, ws);
    // Twice: the second run reuses the lazily built map.
    index->self_knn_into(params, results, ws);
    ASSERT_EQ(results.size(), n) << name;
    for (std::uint64_t i = 0; i < n; ++i) {
      expect_row_equals(results[i], expected[i],
                        name + " sparse-id self " + std::to_string(i));
    }
  }
}

TEST(FacadeMl, BatchClassifyAndRegressThroughAnyIndex) {
  const std::uint64_t n = 600;
  const auto gen = data::make_generator("gmm", 44);
  const data::PointSet points = gen->generate_all(n);
  data::PointSet queries(gen->dims());
  gen->generate(n, n + 25, queries);
  const auto label_of = [](std::uint64_t id) {
    return static_cast<int>(id % 3);
  };
  const auto value_of = [](std::uint64_t id) {
    return static_cast<double>(id % 7);
  };

  // Reference predictions from oracle rows.
  std::vector<int> expected_labels(queries.size());
  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expected_labels[i] =
        ml::classify(baselines::brute_force_knn(points, q, 5), label_of, 3);
  }

  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    const auto labels = ml::classify_batch(*index, queries, 5, label_of, 3);
    ASSERT_EQ(labels.size(), queries.size()) << name;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(labels[i], expected_labels[i]) << name << " query " << i;
    }
    const auto values = ml::regress_batch(*index, queries, 5, value_of);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(values[i].has_value()) << name;
      EXPECT_GE(*values[i], 0.0);
      EXPECT_LE(*values[i], 6.0);
    }
  }
}

// ---------------------------------------------------------------------
// Construction, persistence, error paths
// ---------------------------------------------------------------------

TEST(FacadeBuild, RejectsBadOptions) {
  const auto gen = data::make_generator("uniform", 1);
  const data::PointSet points = gen->generate_all(50);
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Dist;
    o.cluster.ranks = 0;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Dist;
    o.cluster.threads_per_rank = 0;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  {
    IndexOptions o;
    o.threads = -2;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Mutable;
    o.mutable_config.buffer_capacity = 0;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Mutable;
    o.mutable_config.merge_fan_in = 1;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  {
    IndexOptions o;
    o.engine = IndexOptions::Engine::Dist;
    o.dist_batch_size = 0;
    EXPECT_THROW((void)Index::build(points, o), panda::Error);
  }
  EXPECT_THROW((void)Index::build(data::PointSet{}, IndexOptions{}),
               panda::Error);
}

/// Index::build over cosmology points with one NaN or infinite
/// coordinate must throw panda::Error naming the point id and the
/// dimension, through both build overloads.
void expect_build_refuses_non_finite(const IndexOptions& options,
                                     std::uint64_t n) {
  const data::PointSet clean =
      data::make_generator("cosmo", 41)->generate_all(n);
  const std::uint64_t victim = n / 2;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    data::PointSet points = clean;
    points.coordinate(2)[victim] = bad;
    try {
      (void)Index::build(points, options);
      ADD_FAILURE() << n << " points with a " << bad << " were accepted";
    } catch (const panda::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("point id " + std::to_string(points.id(victim))),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("dimension 2"), std::string::npos) << what;
    }
    EXPECT_THROW((void)Index::build(data::PointSetView(points), options),
                 panda::Error)
        << bad;
  }
}

TEST(FacadeBuild, LocalRefusesNonFiniteCoordinates) {
  IndexOptions o;
  o.threads = 2;
  expect_build_refuses_non_finite(o, 5000);
}

TEST(FacadeBuild, DistRefusesNonFiniteCoordinates) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::Dist;
  o.cluster.ranks = 2;
  expect_build_refuses_non_finite(o, 5000);
}

TEST(FacadeBuild, BruteForceRefusesNonFiniteCoordinates) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::BruteForce;
  expect_build_refuses_non_finite(o, 5000);
}

TEST(FacadeBuild, SimpleTreeRefusesNonFiniteCoordinates) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::SimpleTree;
  expect_build_refuses_non_finite(o, 5000);
}

TEST(FacadeBuild, MutableRefusesNonFiniteCoordinatesEitherSideOfTheBuffer) {
  // Below buffer_capacity the points go through insert(); at or above
  // it the seed tree is built directly. Both paths refuse.
  IndexOptions o;
  o.engine = IndexOptions::Engine::Mutable;
  o.threads = 2;
  o.mutable_config.buffer_capacity = 1024;
  expect_build_refuses_non_finite(o, 500);
  expect_build_refuses_non_finite(o, 5000);
}

/// Every query entry refuses a batch with a NaN or infinite coordinate
/// with panda::Error naming the query id and the dimension — knn_into
/// (unbounded and bounded), both radius_into overloads, and the
/// single-query knn and radius_search shims — and still answers a
/// clean batch afterwards.
void expect_queries_refuse_non_finite(const IndexOptions& options) {
  const auto gen = data::make_generator("cosmo", 43);
  const data::PointSet points = gen->generate_all(2000);
  auto index = Index::build(points, options);
  data::PointSet clean(points.dims());
  gen->generate(5000, 5008, clean);
  const std::uint64_t victim = 5;
  core::NeighborTable results;
  SearchWorkspace ws;
  SearchParams params;
  params.k = 4;
  SearchParams bounded = params;
  bounded.radius = 0.1f;
  const std::vector<float> radii(clean.size(), 0.05f);
  std::vector<float> q(points.dims());
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    data::PointSet queries = clean;
    queries.coordinate(1)[victim] = bad;
    const std::string at =
        std::string(index->engine_name()) + " " + std::to_string(bad);
    const auto expect_refused = [&](const auto& call, const char* entry) {
      try {
        call();
        ADD_FAILURE() << at << " " << entry << " accepted the query";
      } catch (const panda::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("point id " + std::to_string(queries.id(victim))),
                  std::string::npos)
            << at << " " << entry << ": " << what;
        EXPECT_NE(what.find("dimension 1"), std::string::npos)
            << at << " " << entry << ": " << what;
      }
    };
    expect_refused([&] { index->knn_into(queries, params, results, ws); },
                   "knn_into");
    expect_refused([&] { index->knn_into(queries, bounded, results, ws); },
                   "bounded knn_into");
    expect_refused([&] { index->radius_into(queries, radii, results, ws); },
                   "radius_into");
    expect_refused([&] { index->radius_into(queries, bounded, results, ws); },
                   "uniform radius_into");
    queries.copy_point(victim, q.data());
    EXPECT_THROW((void)index->knn(q, 4), panda::Error) << at << " knn()";
    EXPECT_THROW((void)index->radius_search(q, 0.05f), panda::Error)
        << at << " radius_search()";
  }
  index->knn_into(clean, params, results, ws);
  ASSERT_EQ(results.size(), clean.size());
  EXPECT_EQ(results[0].size(), 4u);
}

TEST(FacadeQuery, LocalRefusesNonFiniteQueries) {
  IndexOptions o;
  o.threads = 2;
  expect_queries_refuse_non_finite(o);
}

TEST(FacadeQuery, DistRefusesNonFiniteQueries) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::Dist;
  o.cluster.ranks = 2;
  expect_queries_refuse_non_finite(o);
}

TEST(FacadeQuery, BruteForceRefusesNonFiniteQueries) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::BruteForce;
  expect_queries_refuse_non_finite(o);
}

TEST(FacadeQuery, SimpleTreeRefusesNonFiniteQueries) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::SimpleTree;
  expect_queries_refuse_non_finite(o);
}

TEST(FacadeQuery, MutableRefusesNonFiniteQueries) {
  IndexOptions o;
  o.engine = IndexOptions::Engine::Mutable;
  o.threads = 2;
  o.mutable_config.buffer_capacity = 128;
  expect_queries_refuse_non_finite(o);
}

TEST(FacadeSearch, RejectsBadQueries) {
  const auto gen = data::make_generator("uniform", 2);
  const data::PointSet points = gen->generate_all(100);
  data::PointSet wrong_dims(points.dims() + 1);
  wrong_dims.push_point(std::vector<float>(points.dims() + 1, 0.5f), 0);
  data::PointSet good(points.dims());
  good.push_point(std::vector<float>(points.dims(), 0.5f), 0);

  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    core::NeighborTable results;
    SearchWorkspace ws;
    SearchParams params;
    params.k = 3;
    EXPECT_THROW(index->knn_into(wrong_dims, params, results, ws),
                 panda::Error)
        << name;
    SearchParams zero_k;
    zero_k.k = 0;
    EXPECT_THROW(index->knn_into(good, zero_k, results, ws), panda::Error)
        << name;
    SearchParams negative_bound;
    negative_bound.k = 1;
    negative_bound.radius = -0.5f;
    EXPECT_THROW(index->knn_into(good, negative_bound, results, ws),
                 panda::Error)
        << name;
    // radii size mismatch and negative radius.
    const float one_radius[1] = {0.1f};
    data::PointSet two(points.dims());
    two.push_point(std::vector<float>(points.dims(), 0.1f), 0);
    two.push_point(std::vector<float>(points.dims(), 0.2f), 1);
    EXPECT_THROW(index->radius_into(two, one_radius, results, ws),
                 panda::Error)
        << name;
    const float negative[1] = {-1.0f};
    EXPECT_THROW(index->radius_into(good, negative, results, ws),
                 panda::Error)
        << name;
  }
}

TEST(FacadeOpen, SaveOpenRoundTripAndRefusals) {
  const auto gen = data::make_generator("gmm", 7);
  const data::PointSet points = gen->generate_all(2000);
  data::PointSet queries(gen->dims());
  gen->generate(2000, 2030, queries);

  IndexOptions options;
  options.threads = 2;
  auto built = Index::build(points, options);
  const std::string path = temp_path("panda_index_roundtrip.kdt");
  built->save(path);
  auto opened = Index::open(path, options);
  std::remove(path.c_str());

  SearchParams params;
  params.k = 6;
  core::NeighborTable a;
  core::NeighborTable b;
  SearchWorkspace ws;
  built->knn_into(queries, params, a, ws);
  opened->knn_into(queries, params, b, ws);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ra = a[i];
    const auto rb = b[i];
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].id, rb[j].id);
      EXPECT_EQ(ra[j].dist2, rb[j].dist2);
    }
  }

  // Non-Local engines neither save nor open.
  IndexOptions dist_options;
  dist_options.engine = IndexOptions::Engine::Dist;
  EXPECT_THROW(Index::build(points, dist_options)->save(path), panda::Error);
  EXPECT_THROW((void)Index::open(path, dist_options), panda::Error);

  EXPECT_THROW((void)Index::open(temp_path("panda_no_such_index.kdt")),
               panda::Error);
}

TEST(FacadeOpen, SurfacesVersion1RefusalVerbatim) {
  // A version-1 header prefix: magic + version at the same offsets as
  // every format revision. Index::open must surface the loader's
  // diagnostic untouched — same text a direct KdTree::load shows.
  const std::string path = temp_path("panda_index_v1_refusal.kdt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint64_t magic = 0x50414e44414b4454ULL;  // "PANDAKDT"
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::vector<char> padding(256, '\0');
    out.write(padding.data(), static_cast<std::streamsize>(padding.size()));
  }
  try {
    (void)Index::open(path);
    std::remove(path.c_str());
    FAIL() << "version-1 file must be refused";
  } catch (const panda::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported kd-tree version 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rebuild and re-save the index"), std::string::npos)
        << what;
    std::remove(path.c_str());
  }
}

TEST(FacadeMutate, ImmutableAdaptersRejectMutationsTyped) {
  const auto gen = data::make_generator("uniform", 31);
  const data::PointSet points = gen->generate_all(120);
  data::PointSet extra(gen->dims());
  gen->generate(1000, 1004, extra);
  const std::uint64_t ids[] = {1, 2};

  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    if (name == "mutable") {
      EXPECT_TRUE(index->mutable_index());
      continue;
    }
    EXPECT_FALSE(index->mutable_index()) << name;
    try {
      index->insert(extra);
      FAIL() << name << " must reject insert()";
    } catch (const panda::Error& e) {
      // The message must point at the fix, not just refuse.
      EXPECT_NE(std::string(e.what()).find("Engine::Mutable"),
                std::string::npos)
          << name << ": " << e.what();
    }
    EXPECT_THROW((void)index->erase(ids), panda::Error) << name;
    EXPECT_EQ(index->size(), points.size()) << name;
  }
}

TEST(FacadeMutate, InsertEraseMatchOracleThroughTheFacade) {
  const auto gen = data::make_generator("gmm", 808);
  IndexOptions options;
  options.engine = IndexOptions::Engine::Mutable;
  options.threads = 2;
  options.mutable_config.buffer_capacity = 64;
  options.mutable_config.merge_fan_in = 2;

  data::PointSet live = gen->generate_all(150);
  auto index = Index::build(live, options);

  // Grow live alongside the index: insert two more chunks, erase a
  // stripe, and the facade must stay oracle-exact throughout.
  for (int round = 0; round < 2; ++round) {
    data::PointSet fresh(gen->dims());
    gen->generate(live.size(), live.size() + 90, fresh);
    index->insert(fresh);
    std::vector<float> p(gen->dims());
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
      fresh.copy_point(i, p.data());
      live.push_point(p, fresh.id(i));
    }
  }
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t id = 10; id < 300; id += 10) doomed.push_back(id);
  EXPECT_EQ(index->erase(doomed), doomed.size());
  data::PointSet survivors(gen->dims());
  std::vector<float> p(gen->dims());
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    if (live.id(i) >= 10 && live.id(i) < 300 && live.id(i) % 10 == 0) {
      continue;
    }
    live.copy_point(i, p.data());
    survivors.push_point(p, live.id(i));
  }
  EXPECT_EQ(index->size(), survivors.size());

  data::PointSet queries(gen->dims());
  gen->generate(5000, 5020, queries);
  SearchParams params;
  params.k = 7;
  core::NeighborTable results;
  SearchWorkspace ws;
  index->knn_into(queries, params, results, ws);
  std::vector<float> q(gen->dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_row_equals(results[i],
                      baselines::brute_force_knn(survivors, q, params.k),
                      "facade mutate query " + std::to_string(i));
  }

  // Lifetime mutation counters surface through SearchStats. The 150
  // build points arrived through the synchronous seed tree, not
  // insert(), so only the two streamed chunks count.
  SearchStats stats;
  index->self_knn_into(params, results, ws, &stats);
  EXPECT_EQ(stats.inserts, 90u + 90u);
  EXPECT_EQ(stats.erases, doomed.size());
}

TEST(FacadeMutate, PaperFormulaOnATombstonedForest) {
  // The Mutable adapter forwards SearchParams::policy: the printed
  // Algorithm 1 runs on every tree of a forest with dead ids in the
  // seed tree, a sealed tree and the buffer. It may over-prune, but
  // each row still holds k ascending (dist², id) entries, none dead.
  const auto gen = data::make_generator("gmm", 909);
  IndexOptions options;
  options.engine = IndexOptions::Engine::Mutable;
  options.threads = 2;
  options.mutable_config.buffer_capacity = 64;
  options.mutable_config.merge_fan_in = 2;
  auto index = Index::build(gen->generate_all(600), options);
  data::PointSet fresh(gen->dims());
  gen->generate(600, 700, fresh);
  index->insert(fresh);
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t id = 0; id < 700; id += 3) doomed.push_back(id);
  EXPECT_EQ(index->erase(doomed), doomed.size());

  data::PointSet queries(gen->dims());
  gen->generate(5000, 5100, queries);
  SearchParams params;
  params.k = 8;
  params.policy = core::TraversalPolicy::PaperFormula;
  core::NeighborTable results;
  SearchWorkspace ws;
  index->knn_into(queries, params, results, ws);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto row = results[i];
    ASSERT_EQ(row.size(), params.k) << "query " << i;
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_FALSE(std::binary_search(doomed.begin(), doomed.end(), row[j].id))
          << "query " << i << " returned dead id " << row[j].id;
      if (j > 0) {
        EXPECT_TRUE(row[j - 1] < row[j]) << "query " << i;
      }
    }
  }
}

TEST(FacadeOpen, MutableSaveOpenRoundTrip) {
  const auto gen = data::make_generator("uniform", 272);
  IndexOptions mutable_options;
  mutable_options.engine = IndexOptions::Engine::Mutable;
  mutable_options.threads = 2;
  mutable_options.mutable_config.buffer_capacity = 64;

  const data::PointSet points = gen->generate_all(400);
  auto built = Index::build(points, mutable_options);
  data::PointSet fresh(gen->dims());
  gen->generate(400, 460, fresh);
  built->insert(fresh);
  const std::uint64_t doomed[] = {3, 77, 411};
  ASSERT_EQ(built->erase(doomed), 3u);

  // save() compacts the forest (buffer, trees, tombstones) into one
  // v4 file; the file round-trips under either engine.
  const std::string path = temp_path("panda_mutable_roundtrip.kdt");
  built->save(path);

  data::PointSet queries(gen->dims());
  gen->generate(9000, 9024, queries);
  SearchParams params;
  params.k = 6;
  core::NeighborTable expected;
  core::NeighborTable got;
  SearchWorkspace ws;
  built->knn_into(queries, params, expected, ws);

  auto as_local = Index::open(path, IndexOptions{});
  EXPECT_FALSE(as_local->mutable_index());
  as_local->knn_into(queries, params, got, ws);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_row_equals(got[i], {expected[i].begin(), expected[i].end()},
                      "opened-as-local query " + std::to_string(i));
  }

  auto as_mutable = Index::open(path, mutable_options);
  std::remove(path.c_str());
  EXPECT_TRUE(as_mutable->mutable_index());
  EXPECT_STREQ(as_mutable->engine_name(), "mutable");
  EXPECT_EQ(as_mutable->size(), built->size());
  as_mutable->knn_into(queries, params, got, ws);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_row_equals(got[i], {expected[i].begin(), expected[i].end()},
                      "opened-as-mutable query " + std::to_string(i));
  }

  // The reopened index is live: stack new points on the seeded tree
  // and the erased ids stay erased.
  data::PointSet more(gen->dims());
  gen->generate(2000, 2010, more);
  as_mutable->insert(more);
  EXPECT_EQ(as_mutable->size(), built->size() + 10);
  std::vector<float> q(gen->dims());
  more.copy_point(0, q.data());
  const auto row = as_mutable->knn(q, 1);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].id, 2000u);
  EXPECT_EQ(row[0].dist2, 0.0f);
}

TEST(FacadeBuild, EmptyQuerySetsAndEngineNames) {
  const auto gen = data::make_generator("uniform", 12);
  const data::PointSet points = gen->generate_all(64);
  const data::PointSet no_queries(points.dims());
  for (const auto& [name, options] : adapter_matrix()) {
    auto index = Index::build(points, options);
    EXPECT_STRNE(index->engine_name(), "") << name;
    core::NeighborTable results;
    SearchWorkspace ws;
    SearchParams params;
    params.k = 3;
    index->knn_into(no_queries, params, results, ws);
    EXPECT_EQ(results.size(), 0u) << name;
    index->radius_into(no_queries, std::span<const float>{}, results, ws);
    EXPECT_EQ(results.size(), 0u) << name;
  }
}

}  // namespace
