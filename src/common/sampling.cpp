#include "common/sampling.hpp"

#include <algorithm>
#include <unordered_set>

namespace panda {

std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t count,
                                          Rng& rng) {
  if (count >= n) {
    std::vector<std::uint64_t> all(n);
    for (std::uint64_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  // Floyd's sampling: for j in [n-count, n): pick t in [0, j]; insert t
  // unless taken, else insert j. Produces a uniform sample without
  // replacement in O(count) expected insertions.
  std::unordered_set<std::uint64_t> taken;
  taken.reserve(count * 2);
  for (std::uint64_t j = n - count; j < n; ++j) {
    const std::uint64_t t = rng.uniform_index(j + 1);
    if (!taken.insert(t).second) taken.insert(j);
  }
  std::vector<std::uint64_t> out(taken.begin(), taken.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> strided_indices(std::uint64_t n,
                                           std::size_t count) {
  std::vector<std::uint64_t> out;
  out.reserve(std::min<std::uint64_t>(n, count));
  for_each_strided(n, count, [&out](std::uint64_t i) { out.push_back(i); });
  return out;
}

MeanVar mean_variance(std::span<const float> values) {
  MeanVar mv;
  if (values.empty()) return mv;
  double mean = 0.0;
  double m2 = 0.0;
  std::uint64_t count = 0;
  for (const float v : values) {
    ++count;
    const double delta = v - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (v - mean);
  }
  mv.mean = mean;
  mv.variance = m2 / static_cast<double>(count);
  return mv;
}

}  // namespace panda
