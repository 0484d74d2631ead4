// Unit tests for the split-selection heuristics: variance-based
// dimension choice (the one-pass choice against a per-dimension loop,
// bit for bit), sampled boundaries, approximate medians, and the
// histogram boundary picker — including the rank-error guarantee the
// construction relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sampling.hpp"
#include "core/median.hpp"
#include "data/generators.hpp"

namespace panda::core {
namespace {

data::PointSet anisotropic_points(std::uint64_t n, std::size_t dims,
                                  std::size_t wide_dim, double wide_scale,
                                  std::uint64_t seed) {
  data::PointSet points(dims);
  Rng rng(seed);
  std::vector<float> p(dims);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      const double scale = d == wide_dim ? wide_scale : 1.0;
      p[d] = static_cast<float>(rng.normal(0.0, scale));
    }
    points.push_point(p, i);
  }
  return points;
}

std::vector<std::uint64_t> identity(std::uint64_t n) {
  std::vector<std::uint64_t> idx(n);
  for (std::uint64_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// The first `take` entries of a random permutation of [0, n): an
/// unsorted subset, like a node's idx range mid-build.
std::vector<std::uint64_t> random_subset(std::uint64_t n, std::uint64_t take,
                                         std::uint64_t seed) {
  auto idx = identity(n);
  Rng rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.uniform_index(i)]);
  }
  idx.resize(take);
  return idx;
}

/// The per-dimension reference: sampled_variance for every dimension,
/// the first maximum wins.
std::size_t per_dimension_choice(const data::PointSet& points,
                                 std::span<const std::uint64_t> idx,
                                 std::size_t max_samples, double* variance) {
  std::size_t best_dim = 0;
  double best_var = -1.0;
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const double var =
        sampled_variance(points.coordinate(d), idx, max_samples);
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  *variance = best_var;
  return best_dim;
}

/// Asserts the one-pass choice equals the per-dimension loop: the same
/// dimension and a bit-identical variance. Returns the dimension.
std::size_t expect_same_choice(const data::PointSet& points,
                               std::span<const std::uint64_t> idx,
                               std::size_t max_samples,
                               const std::string& context) {
  double want_var = 0.0;
  const std::size_t want = per_dimension_choice(points, idx, max_samples,
                                                &want_var);
  double got_var = 0.0;
  const std::size_t got = choose_dimension_by_variance(
      data::PointSetView(points), idx, max_samples, &got_var);
  EXPECT_EQ(got, want) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got_var),
            std::bit_cast<std::uint64_t>(want_var))
      << context << ": " << got_var << " vs " << want_var;
  return got;
}

TEST(SampledVariance, DetectsScaleDifferences) {
  const auto points = anisotropic_points(5000, 3, 1, 10.0, 42);
  const auto idx = identity(points.size());
  const double narrow = sampled_variance(points.coordinate(0), idx, 1024);
  const double wide = sampled_variance(points.coordinate(1), idx, 1024);
  EXPECT_GT(wide, 20.0 * narrow);
}

TEST(SampledVariance, ZeroForConstantDimension) {
  data::PointSet points(2);
  for (std::uint64_t i = 0; i < 100; ++i) {
    points.push_point(std::vector<float>{5.0f, static_cast<float>(i)}, i);
  }
  const auto idx = identity(points.size());
  EXPECT_EQ(sampled_variance(points.coordinate(0), idx, 64), 0.0);
  EXPECT_GT(sampled_variance(points.coordinate(1), idx, 64), 0.0);
}

TEST(ChooseDimension, PicksMaxVarianceDimension) {
  for (const std::size_t wide : {0u, 1u, 2u, 4u}) {
    const auto points = anisotropic_points(3000, 5, wide, 8.0, 100 + wide);
    const auto idx = identity(points.size());
    double variance = 0.0;
    EXPECT_EQ(choose_dimension_by_variance(data::PointSetView(points), idx,
                                           256, &variance),
              wide);
    EXPECT_GT(variance, 0.0);
  }
}

TEST(SampledVariance, WelfordOverStridedIndices) {
  // The inline sample positions are strided_indices', in order: the
  // variance equals Welford over the materialized positions bit for
  // bit, for n below, at and above max_samples.
  const auto points = anisotropic_points(5000, 2, 1, 3.0, 9);
  for (const std::uint64_t n : {0u, 1u, 2u, 255u, 256u, 257u, 4999u}) {
    const auto idx = random_subset(points.size(), n, 31 + n);
    const auto coords = points.coordinate(1);
    double mean = 0.0;
    double m2 = 0.0;
    std::uint64_t count = 0;
    for (const std::uint64_t s : strided_indices(idx.size(), 256)) {
      const float v = coords[idx[s]];
      ++count;
      const double delta = v - mean;
      mean += delta / static_cast<double>(count);
      m2 += delta * (v - mean);
    }
    const double want = count == 0 ? 0.0 : m2 / static_cast<double>(count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled_variance(coords, idx, 256)),
              std::bit_cast<std::uint64_t>(want))
        << "n=" << n;
  }
}

TEST(ChooseDimension, OnePassMatchesPerDimensionLoop) {
  // Dimensions below, at and above the one-pass block width; subsets
  // empty, single, below and above max_samples.
  for (const std::size_t dims : {1u, 3u, 10u, 16u, 17u, 40u}) {
    const auto points = anisotropic_points(3000, dims, dims / 2, 2.5, dims);
    for (const std::uint64_t n : {0u, 1u, 2u, 100u, 256u, 257u, 3000u}) {
      const auto idx = random_subset(points.size(), n, 1000 * dims + n);
      for (const std::size_t max_samples : {1u, 64u, 256u}) {
        expect_same_choice(points, idx, max_samples,
                           "dims=" + std::to_string(dims) +
                               " n=" + std::to_string(n) +
                               " max_samples=" + std::to_string(max_samples));
      }
    }
  }
}

TEST(ChooseDimension, ConstantColumnAndFirstOfEqualColumnsWin) {
  // 40 dimensions: more than any fixed-size block. Column 0 is
  // constant; columns 7, 15, 16 and 33 hold the same values at the
  // largest scale, so their variances are equal and the first wins —
  // also across the block boundary between 15 and 16.
  const std::size_t dims = 40;
  data::PointSet points(dims);
  Rng rng(77);
  std::vector<float> p(dims);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      p[d] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    p[0] = 5.0f;
    const float wide = static_cast<float>(rng.normal(0.0, 4.0));
    for (const std::size_t d : {7u, 15u, 16u, 33u}) p[d] = wide;
    points.push_point(p, i);
  }
  for (const std::uint64_t n : {2u, 300u, 2000u}) {
    const auto idx = random_subset(points.size(), n, 5 + n);
    EXPECT_EQ(expect_same_choice(points, idx, 256, "n=" + std::to_string(n)),
              7u);
  }
  // Without columns 7 and 15 the tie is 16 vs 33, in different blocks.
  data::PointSet narrowed(dims);
  for (std::uint64_t i = 0; i < points.size(); ++i) {
    points.copy_point(i, p.data());
    p[7] = 0.0f;
    p[15] = 0.0f;
    narrowed.push_point(p, i);
  }
  EXPECT_EQ(expect_same_choice(narrowed, identity(narrowed.size()), 256,
                               "narrowed"),
            16u);
  // A constant column alone has variance exactly zero, and is chosen
  // (dimension 0) when every column is constant.
  data::PointSet flat(dims);
  std::fill(p.begin(), p.end(), 5.0f);
  for (std::uint64_t i = 0; i < 50; ++i) flat.push_point(p, i);
  double variance = -1.0;
  EXPECT_EQ(choose_dimension_by_variance(data::PointSetView(flat),
                                         identity(flat.size()), 256,
                                         &variance),
            0u);
  EXPECT_EQ(variance, 0.0);
  EXPECT_EQ(sampled_variance(points.coordinate(0), identity(points.size()),
                             256),
            0.0);
}

TEST(SampleBoundaries, SortedAndBoundedBySampleSize) {
  const auto points = anisotropic_points(10000, 3, 0, 1.0, 7);
  const auto idx = identity(points.size());
  const auto boundaries = sample_boundaries(points.coordinate(0), idx, 256);
  EXPECT_EQ(boundaries.size(), 256u);
  EXPECT_TRUE(std::is_sorted(boundaries.begin(), boundaries.end()));
}

TEST(SampleMedian, CloseToTrueMedianOnSmoothData) {
  const auto points = anisotropic_points(50000, 1, 0, 1.0, 13);
  const auto idx = identity(points.size());
  const float approx = sample_median(points.coordinate(0), idx, 1024);
  // Rank of the approximate median should be near 50%.
  std::uint64_t below = 0;
  const auto coords = points.coordinate(0);
  for (const float v : coords) {
    if (v < approx) ++below;
  }
  const double fraction =
      static_cast<double>(below) / static_cast<double>(points.size());
  EXPECT_NEAR(fraction, 0.5, 0.06);
}

TEST(PickSplitBoundary, ExactOnSmallHistogram) {
  // boundaries: b0..b3; hist has 5 bins. Cumulative below b_i:
  // hist[0..i] summed.
  const std::vector<std::uint64_t> hist{10, 10, 10, 10, 10};
  // total=50, fraction 0.5 -> target 25. Cumulatives: 10,20,30,40.
  // Closest to 25 is 20 (b=1) or 30 (b=2); first minimal wins -> 1.
  EXPECT_EQ(pick_split_boundary(hist, 50, 0.5), 1u);
}

TEST(PickSplitBoundary, RespectsFraction) {
  const std::vector<std::uint64_t> hist{10, 10, 10, 10, 10};
  EXPECT_EQ(pick_split_boundary(hist, 50, 0.2), 0u);   // target 10
  EXPECT_EQ(pick_split_boundary(hist, 50, 0.8), 3u);   // target 40
}

TEST(PickSplitBoundary, SkewedHistogram) {
  const std::vector<std::uint64_t> hist{0, 0, 100, 0, 0};
  // Cumulative below boundaries: 0, 0, 100, 100. Target 50: the first
  // boundary whose cumulative is closest — 0 vs 100 tie at 50; first
  // minimal (index 0) wins.
  EXPECT_EQ(pick_split_boundary(hist, 100, 0.5), 0u);
}

TEST(PickSplitBoundary, MedianRankErrorBoundedBySampling) {
  // End-to-end property: sampling m boundaries from n points and
  // counting the full histogram yields a split whose rank error is
  // within ~2n/m of the true median (one bin width).
  Rng rng(55);
  const std::uint64_t n = 100000;
  const std::size_t m = 512;
  data::PointSet points(1);
  for (std::uint64_t i = 0; i < n; ++i) {
    points.push_point(
        std::vector<float>{static_cast<float>(rng.exponential(1.0))}, i);
  }
  const auto idx = identity(n);
  const auto boundaries = sample_boundaries(points.coordinate(0), idx, m);
  // Count the full dataset into the sample-defined bins.
  std::vector<std::uint64_t> hist(boundaries.size() + 1, 0);
  const auto coords = points.coordinate(0);
  for (const float v : coords) {
    hist[static_cast<std::size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), v) -
        boundaries.begin())]++;
  }
  const std::size_t b = pick_split_boundary(hist, n, 0.5);
  const float split = boundaries[b];
  std::uint64_t below = 0;
  for (const float v : coords) {
    if (v < split) ++below;
  }
  const double rank_error =
      std::abs(static_cast<double>(below) - static_cast<double>(n) / 2.0);
  EXPECT_LT(rank_error, 2.0 * static_cast<double>(n) / m);
}

}  // namespace
}  // namespace panda::core
