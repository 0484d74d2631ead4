// Unit tests for src/simd: distance kernels validated against the
// scalar reference over a parameter sweep, padding semantics, the ISA
// variants and the live-lane call checked bit for bit against the
// oracle's arithmetic, the lane mask against the scalar predicate, the
// k-th-smallest network against std::nth_element, and the sub-interval
// searcher checked against std::upper_bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simd/distance.hpp"
#include "simd/interval_search.hpp"

namespace panda::simd {
namespace {

TEST(PaddedCount, RoundsUpToPadMultiple) {
  EXPECT_EQ(padded_count(0), 0u);
  EXPECT_EQ(padded_count(1), kBucketPad);
  EXPECT_EQ(padded_count(kBucketPad), kBucketPad);
  EXPECT_EQ(padded_count(kBucketPad + 1), 2 * kBucketPad);
  EXPECT_EQ(padded_count(33), 48u);
}

TEST(SquaredDistance, MatchesManualComputation) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, 6.0f, 3.0f};
  EXPECT_FLOAT_EQ(squared_distance(a, b, 3), 9.0f + 16.0f + 0.0f);
}

TEST(SquaredDistance, ZeroForIdenticalPoints) {
  const float a[5] = {0.5f, -1.0f, 2.0f, 7.5f, 0.0f};
  EXPECT_FLOAT_EQ(squared_distance(a, a, 5), 0.0f);
}

class DistanceKernelSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DistanceKernelSweep, MatchesReferenceKernel) {
  const auto [dims, count] = GetParam();
  const std::size_t stride = padded_count(count);
  Rng rng(dims * 1000 + count);

  AlignedVector<float> bucket(stride * dims, kPadSentinel);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) {
      bucket[d * stride + i] = static_cast<float>(rng.normal());
    }
  }
  std::vector<float> query(dims);
  for (auto& q : query) q = static_cast<float>(rng.normal());

  std::vector<float> fast(count, -1.0f);
  std::vector<float> reference(count, -2.0f);
  squared_distances_soa(query.data(), bucket.data(), stride, count, dims,
                        fast.data());
  squared_distances_reference(query.data(), bucket.data(), stride, count,
                              dims, reference.data());
  for (std::size_t i = 0; i < count; ++i) {
    // The kernel accumulates in float; tolerate relative rounding only.
    EXPECT_NEAR(fast[i], reference[i],
                1e-5f * std::max(1.0f, reference[i]))
        << "dims=" << dims << " count=" << count << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndCounts, DistanceKernelSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 10, 15, 23),
                       ::testing::Values(1, 2, 15, 16, 17, 31, 32, 33, 64)));

TEST(SquaredDistancesPadded, PaddingLanesAreHuge) {
  const std::size_t dims = 3;
  const std::size_t count = 5;
  const std::size_t stride = padded_count(count);
  AlignedVector<float> bucket(stride * dims, kPadSentinel);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) bucket[d * stride + i] = 0.25f;
  }
  const float query[3] = {0.0f, 0.0f, 0.0f};
  std::vector<float> out(stride, 0.0f);
  squared_distances_padded_inline(query, bucket.data(), stride, dims,
                                  out.data());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(out[i], 3 * 0.25f * 0.25f, 1e-6f);
  }
  for (std::size_t i = count; i < stride; ++i) {
    // Sentinel coordinates overflow to +inf in float.
    EXPECT_TRUE(std::isinf(out[i])) << "lane " << i;
  }
}

TEST(LiveLanes, RoundsUpToLaneGroupWithinThePaddedRow) {
  EXPECT_EQ(live_lanes(0), 0u);
  EXPECT_EQ(live_lanes(1), kLaneGroup);
  EXPECT_EQ(live_lanes(8), 8u);
  EXPECT_EQ(live_lanes(9), 16u);
  EXPECT_EQ(live_lanes(20), 24u);
  for (std::size_t n = 0; n <= 300; ++n) {
    EXPECT_GE(live_lanes(n), n);
    EXPECT_LE(live_lanes(n), padded_count(n)) << n;
  }
}

/// A padded SoA bucket of `count` normal points plus its query. The
/// seed varies with the shape so every case sees different values.
struct Bucket {
  std::size_t dims;
  std::size_t stride;
  AlignedVector<float> soa;
  std::vector<float> query;
};

Bucket make_bucket(std::size_t dims, std::size_t count) {
  Bucket b{dims, padded_count(count), {}, std::vector<float>(dims)};
  b.soa.assign(b.stride * dims, kPadSentinel);
  Rng rng(dims * 7919 + count);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) {
      b.soa[d * b.stride + i] = static_cast<float>(rng.normal());
    }
  }
  for (auto& q : b.query) q = static_cast<float>(rng.normal());
  return b;
}

/// The brute-force oracle's arithmetic: AoS squared_distance of lane i.
float oracle_lane(const Bucket& b, std::size_t i) {
  std::vector<float> point(b.dims);
  for (std::size_t d = 0; d < b.dims; ++d) point[d] = b.soa[d * b.stride + i];
  return squared_distance(b.query.data(), point.data(), b.dims);
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

class KernelContractSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(KernelContractSweep, Avx2AndBaselineAgreeBitForBit) {
  if (!isa_supported(Isa::kAvx2)) GTEST_SKIP() << "host has no AVX2";
  const auto [dims, count] = GetParam();
  const Bucket b = make_bucket(dims, count);
  // Canary past `count`: a variant must write exactly `count` lanes.
  std::vector<float> base(count + 1, -1.0f);
  std::vector<float> avx2(count + 1, -1.0f);
  squared_distances_on(Isa::kBaseline, b.query.data(), b.soa.data(),
                       b.stride, count, dims, base.data());
  squared_distances_on(Isa::kAvx2, b.query.data(), b.soa.data(), b.stride,
                       count, dims, avx2.data());
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(same_bits(avx2[i], base[i]))
        << "dims=" << dims << " count=" << count << " lane " << i << ": "
        << avx2[i] << " vs " << base[i];
    // Both equal the oracle's AoS arithmetic, bit for bit.
    ASSERT_TRUE(same_bits(base[i], oracle_lane(b, i)))
        << "dims=" << dims << " count=" << count << " lane " << i;
  }
  EXPECT_EQ(base[count], -1.0f);
  EXPECT_EQ(avx2[count], -1.0f);
}

TEST_P(KernelContractSweep, LiveLaneCallMatchesReference) {
  // The leaf-scan call: count rounded up to a lane group, which for
  // counts such as 7, 17 and 33 stops short of the padded stride.
  const auto [dims, count] = GetParam();
  const Bucket b = make_bucket(dims, count);
  const std::size_t lanes = live_lanes(count);
  std::vector<float> out(b.stride, -1.0f);
  squared_distances_inline(b.query.data(), b.soa.data(), b.stride, lanes,
                           dims, out.data());
  std::vector<float> reference(count);
  squared_distances_reference(b.query.data(), b.soa.data(), b.stride, count,
                              dims, reference.data());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(out[i], reference[i], 1e-5f * std::max(1.0f, reference[i]))
        << "dims=" << dims << " count=" << count << " lane " << i;
    EXPECT_TRUE(same_bits(out[i], oracle_lane(b, i)))
        << "dims=" << dims << " count=" << count << " lane " << i;
  }
  for (std::size_t i = count; i < lanes; ++i) {
    EXPECT_TRUE(std::isinf(out[i])) << "sentinel lane " << i;
  }
  for (std::size_t i = lanes; i < b.stride; ++i) {
    EXPECT_EQ(out[i], -1.0f) << "lane " << i << " is past the live lanes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndCounts, KernelContractSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                         13, 14, 15, 16, 23, 28),
                       ::testing::Values(1, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                                         64)));

TEST(IsaDispatch, ActiveVariantIsSupported) {
  EXPECT_TRUE(isa_supported(Isa::kBaseline));
  EXPECT_TRUE(isa_supported(active_isa()));
  EXPECT_EQ(active_isa(),
            isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline);
}

/// lanes_at_most over a whole scan, one 64-lane word at a time, exactly
/// as the kd-tree leaf scan calls it.
std::vector<bool> mask_scan(const std::vector<float>& d2, std::size_t count,
                            float bound) {
  std::vector<bool> set(count, false);
  for (std::size_t base = 0; base < count; base += kMaskWord) {
    const std::size_t n = std::min(kMaskWord, count - base);
    const std::uint64_t mask = lanes_at_most(d2.data() + base, n, bound);
    if (n < kMaskWord) {
      EXPECT_EQ(mask >> n, 0u) << "bits past count at base " << base;
    }
    for (std::size_t i = 0; i < n; ++i) set[base + i] = (mask >> i) & 1u;
  }
  return set;
}

TEST(LanesAtMost, EqualsScalarPredicate) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(4242);
  for (const std::size_t count :
       {1, 2, 7, 8, 9, 31, 63, 64, 65, 100, 127, 128, 129, 200, 256}) {
    for (const float bound : {0.0f, 0.5f, 1.0f, 3.25f, inf, nan}) {
      // Past `count`, up to the kernel's live width, lanes hold 0, which
      // passes every non-NaN bound: they must still come back clear.
      std::vector<float> d2(live_lanes(count), 0.0f);
      for (std::size_t i = 0; i < count; ++i) {
        switch (i % 6) {
          case 0: d2[i] = bound; break;  // exactly at the bound
          case 1: d2[i] = inf; break;    // +inf sentinel lane
          case 2: d2[i] = nan; break;    // NaN lane
          case 3: d2[i] = std::nextafter(bound, inf); break;
          default: d2[i] = static_cast<float>(rng.uniform(0.0, 4.0)); break;
        }
      }
      const std::vector<bool> set = mask_scan(d2, count, bound);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(set[i], d2[i] <= bound)
            << "count=" << count << " bound=" << bound << " lane " << i
            << " d2=" << d2[i];
      }
    }
  }
}

/// Lane patterns for the k-th-smallest network: the first-bucket scan
/// feeds it kernel distances, which can tie, sit at +inf once squares
/// overflow, or be 0 and denormal near a duplicate.
std::vector<float> select_lanes(int pattern, std::size_t count,
                                std::size_t k, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    const float u = rng.uniform_float();
    switch (pattern) {
      case 0: v[i] = u; break;                                // uniform
      case 1: v[i] = 0.75f; break;                            // all equal
      case 2: v[i] = u < 0.5f ? 1.0f : 2.0f; break;           // two-valued
      case 3: v[i] = static_cast<float>(i); break;            // sorted
      case 4: v[i] = static_cast<float>(count - i); break;    // reversed
      case 5: v[i] = u < 0.4f ? inf : u; break;               // +inf lanes
      case 6: v[i] = u < 0.4f ? 0.0f : u; break;              // 0.0 lanes
      case 7:                                                 // denormals
        v[i] = denorm * static_cast<float>(1 + rng.uniform_index(64));
        break;
      default: v[i] = u; break;
    }
  }
  if (pattern == 8) {
    // Tied at the k-th: the k-th smallest and up to two lanes either
    // side of it in sorted order share one value.
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    const float tie = v[order[k - 1]];
    for (std::size_t r = k - 1 >= 2 ? k - 3 : 0;
         r < std::min(count, k + 2); ++r) {
      v[order[r]] = tie;
    }
  }
  return v;
}

TEST(KthSmallest, MatchesNthElement) {
  // Every k up to every count up to 64: each unrolled network sees
  // counts at and past its k, and any k past kUnrolledSelect reads
  // +inf, a threshold every lane passes.
  Rng rng(2626);
  for (int pattern = 0; pattern <= 8; ++pattern) {
    for (std::size_t count = 1; count <= 64; ++count) {
      for (std::size_t k = 1; k <= count; ++k) {
        const std::vector<float> v = select_lanes(pattern, count, k, rng);
        const float got = kth_smallest(v.data(), count, k);
        if (k > kUnrolledSelect) {
          ASSERT_EQ(got, std::numeric_limits<float>::infinity())
              << "pattern " << pattern << " count " << count << " k " << k;
          continue;
        }
        std::vector<float> sorted = v;
        std::nth_element(sorted.begin(),
                         sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         sorted.end());
        ASSERT_EQ(got, sorted[k - 1])
            << "pattern " << pattern << " count " << count << " k " << k;
      }
    }
  }
}

TEST(IntervalSearcher, EmptyBoundariesIsSingleBin) {
  const IntervalSearcher searcher(std::span<const float>{});
  EXPECT_EQ(searcher.bin_count(), 1u);
  EXPECT_EQ(searcher.bin(0.0f), 0u);
  EXPECT_EQ(searcher.bin(1e30f), 0u);
}

TEST(IntervalSearcher, SingleBoundary) {
  const std::vector<float> boundaries{1.0f};
  const IntervalSearcher searcher(boundaries);
  EXPECT_EQ(searcher.bin_count(), 2u);
  EXPECT_EQ(searcher.bin(0.5f), 0u);
  EXPECT_EQ(searcher.bin(1.0f), 1u);  // <= convention
  EXPECT_EQ(searcher.bin(1.5f), 1u);
}

TEST(IntervalSearcher, RejectsUnsortedBoundaries) {
  const std::vector<float> boundaries{2.0f, 1.0f};
  EXPECT_THROW(IntervalSearcher searcher(boundaries), panda::Error);
}

class IntervalSearchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IntervalSearchSweep, AgreesWithBinarySearchEverywhere) {
  const std::size_t n = GetParam();
  Rng rng(n * 77 + 5);
  std::vector<float> boundaries(n);
  for (auto& b : boundaries) b = static_cast<float>(rng.normal(0.0, 10.0));
  std::sort(boundaries.begin(), boundaries.end());
  const IntervalSearcher searcher(boundaries);

  // Probe boundary values themselves, midpoints, and random values.
  std::vector<float> probes;
  for (const float b : boundaries) {
    probes.push_back(b);
    probes.push_back(std::nextafter(b, -1e30f));
    probes.push_back(std::nextafter(b, 1e30f));
  }
  for (int i = 0; i < 500; ++i) {
    probes.push_back(static_cast<float>(rng.normal(0.0, 15.0)));
  }
  probes.push_back(-std::numeric_limits<float>::infinity());
  probes.push_back(std::numeric_limits<float>::infinity());

  for (const float v : probes) {
    EXPECT_EQ(searcher.bin(v), searcher.bin_binary_search(v))
        << "n=" << n << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(BoundaryCounts, IntervalSearchSweep,
                         ::testing::Values(1, 2, 16, 31, 32, 33, 64, 100, 255,
                                           256, 1000, 1024));

TEST(IntervalSearcher, DuplicateBoundariesCountedConsistently) {
  const std::vector<float> boundaries{1.0f, 1.0f, 1.0f, 2.0f};
  const IntervalSearcher searcher(boundaries);
  EXPECT_EQ(searcher.bin(0.0f), searcher.bin_binary_search(0.0f));
  EXPECT_EQ(searcher.bin(1.0f), searcher.bin_binary_search(1.0f));
  EXPECT_EQ(searcher.bin(1.5f), searcher.bin_binary_search(1.5f));
  EXPECT_EQ(searcher.bin(2.5f), searcher.bin_binary_search(2.5f));
}

TEST(IntervalSearcher, BatchMatchesScalar) {
  Rng rng(99);
  std::vector<float> boundaries(200);
  for (auto& b : boundaries) b = static_cast<float>(rng.uniform());
  std::sort(boundaries.begin(), boundaries.end());
  const IntervalSearcher searcher(boundaries);

  std::vector<float> values(1000);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-0.2, 1.2));
  std::vector<std::uint32_t> bins(values.size());
  searcher.bins(values, bins);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(bins[i], searcher.bin(values[i]));
  }
}

}  // namespace
}  // namespace panda::simd
