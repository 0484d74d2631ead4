// Unit tests for src/common: RNG determinism and statistics, seed
// derivation, sampling helpers, the wall timer, and error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sampling.hpp"
#include "common/timer.hpp"

namespace panda {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformFloatInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    const float u = rng.uniform_float();
    ASSERT_GE(u, 0.0f);
    ASSERT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(DeriveSeed, DistinctStreamsAreIndependent) {
  const std::uint64_t base = 1234;
  std::unordered_set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 10000; ++s) {
    seeds.insert(derive_seed(base, s));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeed, DependsOnBaseSeed) {
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));
}

TEST(SampleIndices, WithoutReplacementSortedInRange) {
  Rng rng(3);
  const auto idx = sample_indices(1000, 64, rng);
  ASSERT_EQ(idx.size(), 64u);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  std::set<std::uint64_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 64u);
  for (const auto i : idx) EXPECT_LT(i, 1000u);
}

TEST(SampleIndices, CountGreaterThanNReturnsAll) {
  Rng rng(4);
  const auto idx = sample_indices(10, 50, rng);
  ASSERT_EQ(idx.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(idx[i], i);
}

TEST(StridedIndices, EvenCoverage) {
  const auto idx = strided_indices(100, 10);
  ASSERT_EQ(idx.size(), 10u);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_EQ(idx.front(), 0u);
  for (const auto i : idx) EXPECT_LT(i, 100u);
}

TEST(StridedIndices, CountAboveNReturnsIdentity) {
  const auto idx = strided_indices(5, 10);
  ASSERT_EQ(idx.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(idx[i], i);
}

TEST(StridedIndices, EmptyInputs) {
  EXPECT_TRUE(strided_indices(0, 10).empty());
  EXPECT_TRUE(strided_indices(10, 0).empty());
}

TEST(StridedIndices, StrictlyIncreasingEvenWhenCountCloseToN) {
  const auto idx = strided_indices(10, 9);
  ASSERT_EQ(idx.size(), 9u);
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
  }
}

TEST(StridedIndices, EqualsClosedFormWithoutOverflow) {
  // floor(i * n / m), m = min(n, count), computed in 128 bits: the
  // carried quotient and remainder must reproduce it exactly, also
  // where i * n would overflow 64 bits.
  const std::uint64_t max = ~std::uint64_t{0};
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {1, 1}, {7, 3}, {100, 7}, {1000, 256}, {1023, 1024}, {1025, 1024},
      {65537, 1024}, {max, 1}, {max, 3}, {max, 1000}, {max / 3 + 5, 97},
      {(max >> 1) + 1, 256}};
  for (const auto& [n, count] : cases) {
    const std::uint64_t m = std::min<std::uint64_t>(n, count);
    const auto idx = strided_indices(n, count);
    ASSERT_EQ(idx.size(), m) << n << " " << count;
    for (std::uint64_t i = 0; i < m; ++i) {
      const auto want = static_cast<std::uint64_t>(
          static_cast<unsigned __int128>(i) * n / m);
      ASSERT_EQ(idx[i], want) << "n=" << n << " count=" << count << " i=" << i;
    }
  }
}

TEST(MeanVariance, KnownValues) {
  const std::vector<float> values{1.0f, 2.0f, 3.0f, 4.0f};
  const auto mv = mean_variance(values);
  EXPECT_DOUBLE_EQ(mv.mean, 2.5);
  EXPECT_DOUBLE_EQ(mv.variance, 1.25);
}

TEST(MeanVariance, EmptyIsZero) {
  const auto mv = mean_variance(std::span<const float>{});
  EXPECT_EQ(mv.mean, 0.0);
  EXPECT_EQ(mv.variance, 0.0);
}

TEST(MeanVariance, ConstantHasZeroVariance) {
  const std::vector<float> values(100, 3.25f);
  const auto mv = mean_variance(values);
  EXPECT_DOUBLE_EQ(mv.mean, 3.25);
  EXPECT_NEAR(mv.variance, 0.0, 1e-12);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(ErrorMacros, CheckThrowsWithContext) {
  EXPECT_THROW(PANDA_CHECK(1 == 2), Error);
  try {
    PANDA_CHECK_MSG(false, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(ErrorMacros, CheckPassesSilently) {
  EXPECT_NO_THROW(PANDA_CHECK(1 == 1));
  EXPECT_NO_THROW(PANDA_CHECK_MSG(true, "unused"));
}

}  // namespace
}  // namespace panda
