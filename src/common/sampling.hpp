// Sampling utilities used by the split-selection heuristics.
//
// PANDA never sorts whole datasets to find medians or variances: it
// samples. The paper uses m = 256 samples per rank for the global tree
// and 1024 for the local tree. These helpers produce deterministic
// samples given an Rng.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace panda {

/// Indices of `count` elements sampled without replacement from
/// [0, n). If count >= n, returns 0..n-1. O(count) expected time
/// (Floyd's algorithm); result is sorted.
std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t count,
                                          Rng& rng);

/// Deterministic strided sample: floor(i * n / m) for i < m, where
/// m = min(n, count) — evenly spaced, strictly increasing, and every
/// index when count >= n. Used where the paper takes "the first N" or
/// evenly spaced points.
std::vector<std::uint64_t> strided_indices(std::uint64_t n, std::size_t count);

/// Calls fn(position) for each strided_indices(n, count) position, in
/// order, without materializing them. The quotient and remainder of
/// i * n / m are carried from one position to the next, so there is
/// no division per position and nothing can overflow.
template <typename Fn>
void for_each_strided(std::uint64_t n, std::size_t count, Fn&& fn) {
  const std::uint64_t m = std::min<std::uint64_t>(n, count);
  if (m == 0) return;
  const std::uint64_t step = n / m;
  const std::uint64_t rem = n % m;
  std::uint64_t pos = 0;
  std::uint64_t carry = 0;  // (i * n) mod m
  for (std::uint64_t i = 0; i < m; ++i) {
    fn(pos);
    pos += step;
    carry += rem;
    if (carry >= m) {
      carry -= m;
      ++pos;
    }
  }
}

/// Mean and variance of the given values (Welford). Returns {0,0} for
/// empty input.
struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;  // population variance
};
MeanVar mean_variance(std::span<const float> values);

}  // namespace panda
