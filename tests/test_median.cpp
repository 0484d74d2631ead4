// Unit tests for the split-selection heuristics: variance-based
// dimension choice (the one-pass choice against a per-dimension loop,
// bit for bit), sampled boundaries, approximate medians, the
// histogram boundary picker — including the rank-error guarantee the
// construction relies on — and the builders' two split kernels,
// select_kth and partition_below, on every coordinate pattern that
// breaks a careless partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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

// ---------------------------------------------------------------------
// The split kernels.
// ---------------------------------------------------------------------

constexpr float kFltMax = std::numeric_limits<float>::max();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

/// `n` coordinates of one pattern: the inputs a branch-free partition
/// must classify consistently (ties, extremes, signed zeros,
/// subnormals) plus the orders that defeat naive pivots.
std::vector<float> pattern_coords(const std::string& kind, std::size_t n,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.uniform_index(4);
    if (kind == "uniform") {
      c[i] = rng.uniform_float();
    } else if (kind == "all-equal") {
      c[i] = 0.25f;
    } else if (kind == "two-valued") {
      c[i] = pick < 2 ? -1.0f : 3.0f;
    } else if (kind == "heavy-duplicate") {  // three in four on one value
      c[i] = pick < 3 ? 7.0f : rng.uniform_float() * 14.0f;
    } else if (kind == "sorted") {
      c[i] = static_cast<float>(i) * 0.5f;
    } else if (kind == "reverse-sorted") {
      c[i] = static_cast<float>(n - i) * 0.5f;
    } else if (kind == "flt-max") {
      const float values[] = {-kFltMax, kFltMax, 0.0f, 1.0f};
      c[i] = values[pick];
    } else if (kind == "signed-zero") {
      const float values[] = {-0.0f, 0.0f, -0.0f, 1.0f};
      c[i] = values[pick];
    } else if (kind == "denormal") {
      c[i] = static_cast<float>(rng.uniform_index(9)) * kDenorm *
             (pick < 2 ? -1.0f : 1.0f);
    }
  }
  return c;
}

const char* const kPatterns[] = {
    "uniform", "all-equal",      "two-valued", "heavy-duplicate", "sorted",
    "reverse-sorted", "flt-max", "signed-zero", "denormal"};
const std::size_t kKernelSizes[] = {1, 2, 3, 15, 16, 17, 33, 1000, 4096};

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(SplitKernels, SelectKthMatchesNthElementOnEveryPattern) {
  for (const char* kind : kPatterns) {
    for (const std::size_t n : kKernelSizes) {
      // A node is an unsorted subset of the rows, like idx_ mid-build.
      const auto coords = pattern_coords(kind, 2 * n, n);
      const auto idx = random_subset(coords.size(), n, 7 * n + 1);
      std::vector<SplitKey> keys(2 * n + 3);  // a larger buffer is fine
      for (const std::size_t k : {n / 2, std::size_t{0}, n - 1}) {
        const std::string at = std::string(kind) + " n=" +
                               std::to_string(n) + " k=" + std::to_string(k);
        const float got = select_kth(coords, idx, k, keys);

        std::vector<float> want(n);
        for (std::size_t j = 0; j < n; ++j) want[j] = coords[idx[j]];
        std::nth_element(want.begin(),
                         want.begin() + static_cast<std::ptrdiff_t>(k),
                         want.end());
        EXPECT_EQ(got, want[k]) << at;
        EXPECT_EQ(bits_of(got), bits_of(keys[k].coord)) << at;

        // A permutation of the node's offsets, each key carrying its
        // own point's coordinate; nothing larger before k, nothing
        // smaller after it.
        std::vector<std::uint32_t> offsets(n);
        for (std::size_t j = 0; j < n; ++j) {
          offsets[j] = keys[j].offset;
          ASSERT_LT(keys[j].offset, n) << at;
          EXPECT_EQ(bits_of(keys[j].coord),
                    bits_of(coords[idx[keys[j].offset]]))
              << at << " entry " << j;
          if (j < k) {
            EXPECT_FALSE(keys[j].coord > got) << at << " entry " << j;
          }
          if (j > k) {
            EXPECT_FALSE(keys[j].coord < got) << at << " entry " << j;
          }
        }
        std::sort(offsets.begin(), offsets.end());
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(offsets[j], j) << at << ": not a permutation";
        }
      }
    }
  }
}

/// Coordinates for identity indices that defeat select_kth's pivot
/// rule (k = n / 2): a replay of its rounds hands the three entries
/// each round samples the smallest values not yet given out and every
/// other entry a larger one, so a round removes one or two entries
/// instead of about half the range. Entries never sampled get the
/// largest values at the end.
std::vector<float> pivot_killer(std::size_t n) {
  const std::size_t k = n / 2;
  std::vector<std::uint32_t> order(n);  // point at each position
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::vector<float> value(n, -1.0f);  // -1: not given out yet
  std::vector<std::uint32_t> moved(n);
  float next = 0.0f;
  std::size_t a = 0;
  std::size_t b = n;
  while (b - a > 1) {
    const std::size_t m = b - a;
    float s[3];
    const std::size_t at[3] = {a + m / 4, a + m / 2, a + 3 * m / 4};
    for (int t = 0; t < 3; ++t) {
      float& v = value[order[at[t]]];
      if (v < 0.0f) v = next++;
      s[t] = v;
    }
    std::sort(s, s + 3);
    const std::size_t rank = k - a;
    const float pivot = 4 * rank < m ? s[0] : (4 * rank >= 3 * m ? s[2] : s[1]);
    // Not given out yet means larger than every value so far.
    std::size_t front = a;
    for (std::size_t i = a; i < b; ++i) {
      const float v = value[order[i]];
      const bool left = v >= 0.0f && v < pivot;
      moved[left ? front : b - 1 - (i - front)] = order[i];
      front += left ? 1 : 0;
    }
    std::copy(moved.begin() + static_cast<std::ptrdiff_t>(a),
              moved.begin() + static_cast<std::ptrdiff_t>(b),
              order.begin() + static_cast<std::ptrdiff_t>(a));
    if (front == a) break;  // the replay covers "below the pivot" rounds
    if (k < front) {
      b = front;
    } else {
      a = front;
    }
  }
  for (float& v : value) {
    if (v < 0.0f) v = next++;
  }
  return value;
}

TEST(SplitKernels, SelectKthStaysLinearithmicOnAPivotKillerOrder) {
  // On this order of exact_median_threshold entries a round removes one
  // or two of them: without a bound on the rounds the search took about
  // 880 of them, each a pass over most of the range. Past a logarithmic
  // number of rounds select_kth sorts what is left instead.
  const std::size_t n = 4096;
  const std::vector<float> coords = pivot_killer(n);
  const auto idx = identity(n);
  std::vector<SplitKey> keys(2 * n);
  const float got = select_kth(coords, idx, n / 2, keys);
  std::vector<float> want = coords;
  const auto middle = want.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(want.begin(), middle, want.end());
  EXPECT_EQ(got, want[n / 2]);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(keys[j].coord, coords[keys[j].offset]) << "entry " << j;
    if (j < n / 2) {
      ASSERT_FALSE(keys[j].coord > got) << "entry " << j;
    }
    if (j > n / 2) {
      ASSERT_FALSE(keys[j].coord < got) << "entry " << j;
    }
  }
}

TEST(SplitKernels, PartitionBelowSplitsAtTheCountBelow) {
  for (const char* kind : kPatterns) {
    for (const std::size_t n : kKernelSizes) {
      const auto coords = pattern_coords(kind, 2 * n, n + 99);
      const auto original = random_subset(coords.size(), n, 3 * n + 2);
      std::vector<float> sorted(n);
      for (std::size_t j = 0; j < n; ++j) sorted[j] = coords[original[j]];
      std::sort(sorted.begin(), sorted.end());
      // The median (what the builders split at), both extremes, values
      // outside the range, and the signed zeros.
      for (const float split :
           {sorted[n / 2], sorted.front(), sorted.back(), -kFltMax, kFltMax,
            std::numeric_limits<float>::infinity(), -0.0f, 0.0f}) {
        const std::string at = std::string(kind) + " n=" +
                               std::to_string(n) + " split=" +
                               std::to_string(split);
        std::vector<std::uint64_t> idx = original;
        std::vector<std::uint64_t> scratch(n);
        const std::size_t below = partition_below(coords, idx, split, scratch);

        // The entries below split, in input order, then the others in
        // reverse input order: a permutation split at the count below.
        std::vector<std::uint64_t> front;
        std::vector<std::uint64_t> back;
        for (const std::uint64_t p : original) {
          (coords[p] < split ? front : back).push_back(p);
        }
        std::reverse(back.begin(), back.end());
        ASSERT_EQ(below, front.size()) << at;
        EXPECT_TRUE(std::equal(front.begin(), front.end(), idx.begin())) << at;
        const auto tail = idx.begin() + static_cast<std::ptrdiff_t>(below);
        EXPECT_TRUE(std::equal(back.begin(), back.end(), tail)) << at;
      }
    }
  }
}

TEST(SplitKernels, NonFiniteCoordinatesStillEndInAPermutation) {
  // The boundaries refuse NaN and ±inf, but a kernel that met them must
  // still end and move every entry exactly once.
  std::vector<float> coords = pattern_coords("uniform", 500, 5);
  for (std::size_t i = 0; i < coords.size(); i += 7) {
    coords[i] = std::numeric_limits<float>::quiet_NaN();
  }
  for (std::size_t i = 3; i < coords.size(); i += 11) {
    coords[i] = -std::numeric_limits<float>::infinity();
  }
  const auto idx = identity(coords.size());
  std::vector<SplitKey> keys(2 * idx.size());
  (void)select_kth(coords, idx, idx.size() / 2, keys);
  std::vector<std::uint32_t> offsets(idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) offsets[j] = keys[j].offset;
  std::sort(offsets.begin(), offsets.end());
  for (std::size_t j = 0; j < offsets.size(); ++j) ASSERT_EQ(offsets[j], j);

  std::vector<std::uint64_t> moved = idx;
  std::vector<std::uint64_t> scratch(idx.size());
  const std::size_t below = partition_below(coords, moved, 0.5f, scratch);
  for (std::size_t j = 0; j < moved.size(); ++j) {
    EXPECT_EQ(coords[moved[j]] < 0.5f, j < below) << "entry " << j;
  }
  std::sort(moved.begin(), moved.end());
  EXPECT_TRUE(moved == idx);
}

TEST(SampleMedian, EqualsTheMiddleOfTheSortedSample) {
  // nth_element picks the value a full sort puts in the middle; equal
  // floats are the same bits unless they are zeros of either sign.
  for (const char* kind : kPatterns) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{17},
                                std::size_t{1000}, std::size_t{5000}}) {
      const auto values = pattern_coords(kind, n, 11 * n);
      const auto idx = random_subset(n, n, n + 5);
      for (const std::size_t max_samples : {1u, 64u, 1024u}) {
        auto sorted = sample_boundaries(values, idx, max_samples);
        const float want = sorted[sorted.size() / 2];
        const float got = sample_median(values, idx, max_samples);
        const std::string at = std::string(kind) + " n=" + std::to_string(n) +
                               " samples=" + std::to_string(max_samples);
        EXPECT_EQ(got, want) << at;
        if (want != 0.0f) {
          EXPECT_EQ(bits_of(got), bits_of(want)) << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace panda::core
