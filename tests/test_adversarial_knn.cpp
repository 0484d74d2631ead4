// Adversarial KNN agreement (DESIGN.md §5): a fixed budget of seeded
// cases over the inputs that stress float arithmetic and the (dist², id)
// tie order. The inputs are ±FLT_MAX and magnitudes 1e19–3e38, whose
// squared distances overflow to +inf; denormals and ±0.0, whose squares
// underflow to 0; heavy duplicates and small-integer grids, which tie at
// the k-th distance; and k from 1 to n + 1. Local, Mutable (a seed tree
// with tombstones, a buffered run and a re-inserted id) and SimpleTree
// answer KNN and self-KNN, and every row must equal the BruteForce
// engine's id for id and dist² for dist². A failing case prints its
// seed and its inputs as hex floats, so it can be replayed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/index.hpp"
#include "common/rng.hpp"
#include "core/mutable_index.hpp"

namespace panda {
namespace {

using core::Neighbor;
using core::NeighborTable;

/// The fixed budget: cases per run.
constexpr std::uint64_t kCases = 400;

/// How a case draws its coordinates.
enum class Palette { kWild, kMostlyUniform, kGrid, kTiny, kHuge };

/// One coordinate from `palette`.
float draw(Palette palette, Rng& rng) {
  const float sign = rng.uniform_index(2) == 0 ? 1.0f : -1.0f;
  const auto huge = [&] {
    return rng.uniform_index(4) == 0
               ? sign * FLT_MAX
               : sign * static_cast<float>(
                            std::pow(10.0, rng.uniform(19.0, 38.477)));
  };
  const auto tiny = [&] {
    return rng.uniform_index(3) == 0
               ? sign * 0.0f
               : sign * std::numeric_limits<float>::denorm_min() *
                     static_cast<float>(1 + rng.uniform_index(1u << 20));
  };
  const auto grid = [&] {
    return sign * static_cast<float>(rng.uniform_index(4));
  };
  switch (palette) {
    case Palette::kWild:
      switch (rng.uniform_index(4)) {
        case 0: return huge();
        case 1: return tiny();
        case 2: return grid();
        default: return static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    case Palette::kMostlyUniform:
      if (rng.uniform_index(5) == 0) return huge();
      return static_cast<float>(rng.uniform(-1.0, 1.0));
    case Palette::kGrid: return grid();
    case Palette::kTiny: return tiny();
    case Palette::kHuge: return huge();
  }
  return 0.0f;
}

/// One seeded case: the points (ids ascending), the queries, and the
/// Mutable index's writes on top of a seed tree over the first
/// `seed_count` points.
struct Case {
  std::uint64_t seed = 0;
  std::size_t dims = 0;
  Palette palette = Palette::kWild;
  std::uint32_t bucket = 0;
  baselines::SplitPolicy policy = baselines::SplitPolicy::FlannStyle;
  data::PointSet points{1};
  data::PointSet queries{1};
  std::size_t seed_count = 0;
  std::vector<std::uint64_t> erased;
  data::PointSet inserted{1};
  std::vector<std::size_t> ks;

  explicit Case(std::uint64_t s) : seed(s) {
    Rng rng(0xAD5E'0000 + s);
    dims = std::vector<std::size_t>{1, 2, 3, 4, 6}[rng.uniform_index(5)];
    palette = static_cast<Palette>(rng.uniform_index(5));
    bucket = std::vector<std::uint32_t>{1, 2, 4, 8, 32}[rng.uniform_index(5)];
    policy = static_cast<baselines::SplitPolicy>(rng.uniform_index(3));
    const std::size_t n = 1 + rng.uniform_index(96);
    points = data::PointSet(dims);
    std::vector<float> p(dims);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.uniform_index(10) < 3) {
        points.copy_point(rng.uniform_index(i), p.data());  // duplicate
      } else {
        for (float& x : p) x = draw(palette, rng);
      }
      points.push_point(p, 1000 + 3 * i);
    }
    queries = data::PointSet(dims);
    const std::size_t m = 1 + rng.uniform_index(12);
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.uniform_index(3) == 0) {
        points.copy_point(rng.uniform_index(n), p.data());  // on a point
      } else {
        for (float& x : p) x = draw(palette, rng);
      }
      queries.push_point(p, i);
    }
    // The Mutable index: a seed tree over a prefix with about a quarter
    // of it erased, then the rest inserted as one buffered run, with
    // one erased id re-inserted at fresh coordinates.
    seed_count = 1 + rng.uniform_index(n);
    for (std::size_t i = 0; i < seed_count; ++i) {
      if (rng.uniform_index(4) == 0) erased.push_back(points.id(i));
    }
    inserted = data::PointSet(dims);
    for (std::size_t i = seed_count; i < n; ++i) {
      points.copy_point(i, p.data());
      inserted.push_point(p, points.id(i));
    }
    if (!erased.empty()) {
      for (float& x : p) x = draw(palette, rng);
      inserted.push_point(p, erased[rng.uniform_index(erased.size())]);
    }
    ks = {1, 1 + rng.uniform_index(n + 1), n, n + 1};
  }

  /// The Mutable index's live points, ascending by id: its self-KNN row
  /// order.
  data::PointSet live() const {
    std::vector<std::pair<std::uint64_t, std::vector<float>>> rows;
    std::vector<float> p(dims);
    for (std::size_t i = 0; i < seed_count; ++i) {
      if (std::find(erased.begin(), erased.end(), points.id(i)) ==
          erased.end()) {
        points.copy_point(i, p.data());
        rows.emplace_back(points.id(i), p);
      }
    }
    for (std::size_t i = 0; i < inserted.size(); ++i) {
      inserted.copy_point(i, p.data());
      rows.emplace_back(inserted.id(i), p);
    }
    std::sort(rows.begin(), rows.end());
    data::PointSet out(dims);
    for (const auto& [id, coords] : rows) out.push_point(coords, id);
    return out;
  }

  /// The replayable description a failure prints.
  std::string describe() const {
    std::string s = "case seed " + std::to_string(seed) + ": dims " +
                    std::to_string(dims) + ", palette " +
                    std::to_string(static_cast<int>(palette)) + ", bucket " +
                    std::to_string(bucket) + ", simple policy " +
                    std::to_string(static_cast<int>(policy)) +
                    ", seed tree over the first " +
                    std::to_string(seed_count) + " points\n";
    const auto dump = [&](const char* what, const data::PointSet& ps) {
      s += what;
      s += ":\n";
      std::vector<float> p(dims);
      char buf[64];
      for (std::size_t i = 0; i < ps.size(); ++i) {
        ps.copy_point(i, p.data());
        s += "  " + std::to_string(ps.id(i)) + ":";
        for (const float x : p) {
          std::snprintf(buf, sizeof buf, " %a", static_cast<double>(x));
          s += buf;
        }
        s += "\n";
      }
    };
    dump("points", points);
    dump("queries", queries);
    s += "erased:";
    for (const std::uint64_t id : erased) s += " " + std::to_string(id);
    s += "\n";
    dump("inserted", inserted);
    return s;
  }
};

/// Fails with the first row where `got` differs from `want`.
void expect_rows(const NeighborTable& got, const NeighborTable& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto g = got.row(i);
    const auto w = want.row(i);
    if (std::equal(g.begin(), g.end(), w.begin(), w.end())) continue;
    std::string rows;
    char buf[96];
    for (const auto& [name, row] :
         {std::pair{"got ", g}, std::pair{"want", w}}) {
      rows += std::string("\n  ") + name + ":";
      for (const Neighbor& n : row) {
        std::snprintf(buf, sizeof buf, " (%a, %llu)",
                      static_cast<double>(n.dist2),
                      static_cast<unsigned long long>(n.id));
        rows += buf;
      }
    }
    FAIL() << what << " row " << i << rows;
  }
}

TEST(AdversarialKnn, TreeEnginesMatchBruteForceExactly) {
  auto pool = std::make_shared<parallel::ThreadPool>(2);
  core::ForestWorkspace forest_ws;
  SearchWorkspace ws;
  NeighborTable got;
  NeighborTable want;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const Case c(seed);
    SCOPED_TRACE(c.describe());

    IndexOptions oracle_opts;
    oracle_opts.engine = IndexOptions::Engine::BruteForce;
    const auto oracle = Index::build(c.points, oracle_opts);
    IndexOptions local_opts;
    local_opts.engine = IndexOptions::Engine::Local;
    local_opts.build.bucket_size = c.bucket;
    local_opts.pool = pool;
    const auto local = Index::build(c.points, local_opts);
    IndexOptions simple_opts;
    simple_opts.engine = IndexOptions::Engine::SimpleTree;
    simple_opts.simple.policy = c.policy;
    simple_opts.simple.bucket_size = c.bucket;
    const auto simple = Index::build(c.points, simple_opts);

    const data::PointSet live = c.live();
    const auto live_oracle = Index::build(live, oracle_opts);
    data::PointSet seed_points(c.dims);
    std::vector<float> p(c.dims);
    for (std::size_t i = 0; i < c.seed_count; ++i) {
      c.points.copy_point(i, p.data());
      seed_points.push_point(p, c.points.id(i));
    }
    core::BuildConfig build;
    build.bucket_size = c.bucket;
    core::MutableIndex mutable_index(
        core::KdTree::build(seed_points, build, *pool), core::MutableConfig{},
        build, pool);
    mutable_index.erase(c.erased);
    if (!c.inserted.empty()) mutable_index.insert(c.inserted);
    ASSERT_EQ(mutable_index.size(), live.size());
    ASSERT_EQ(mutable_index.stats().buffered_points, c.inserted.size());

    for (const std::size_t k : c.ks) {
      const std::string at = " k " + std::to_string(k);
      const SearchParams params{.k = k};
      oracle->knn_into(c.queries, params, want, ws);
      local->knn_into(c.queries, params, got, ws);
      expect_rows(got, want, "Local KNN" + at);
      simple->knn_into(c.queries, params, got, ws);
      expect_rows(got, want, "SimpleTree KNN" + at);
      oracle->self_knn_into(params, want, ws);
      local->self_knn_into(params, got, ws);
      expect_rows(got, want, "Local self-KNN" + at);
      simple->self_knn_into(params, got, ws);
      expect_rows(got, want, "SimpleTree self-KNN" + at);

      live_oracle->knn_into(c.queries, params, want, ws);
      mutable_index.knn_batch(c.queries, k, got, forest_ws);
      expect_rows(got, want, "Mutable KNN" + at);
      live_oracle->self_knn_into(params, want, ws);
      mutable_index.self_knn_batch(k, got, forest_ws);
      expect_rows(got, want, "Mutable self-KNN" + at);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace panda
