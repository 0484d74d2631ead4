#include "core/median.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/sampling.hpp"

namespace panda::core {

double sampled_variance(std::span<const float> coords,
                        std::span<const std::uint64_t> idx,
                        std::size_t max_samples) {
  double mean = 0.0;
  double m2 = 0.0;
  std::uint64_t count = 0;
  for_each_strided(idx.size(), max_samples, [&](std::uint64_t s) {
    const float v = coords[idx[s]];
    ++count;
    const double delta = v - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (v - mean);
  });
  return count == 0 ? 0.0 : m2 / static_cast<double>(count);
}

std::vector<float> sample_boundaries(std::span<const float> coords,
                                     std::span<const std::uint64_t> idx,
                                     std::size_t max_samples) {
  std::vector<float> values;
  values.reserve(std::min<std::uint64_t>(idx.size(), max_samples));
  for_each_strided(idx.size(), max_samples,
                   [&](std::uint64_t s) { values.push_back(coords[idx[s]]); });
  std::sort(values.begin(), values.end());
  return values;
}

float sample_median(std::span<const float> coords,
                    std::span<const std::uint64_t> idx,
                    std::size_t max_samples) {
  PANDA_CHECK(!idx.empty());
  auto values = sample_boundaries(coords, idx, max_samples);
  return values[values.size() / 2];
}

std::size_t choose_dimension_by_variance(const data::PointStorage& points,
                                         std::span<const std::uint64_t> idx,
                                         std::size_t max_samples,
                                         double* variance_out) {
  // Welford state for up to kBlock dimensions lives on the stack; wider
  // points take one pass per block. Per dimension the operations are
  // sampled_variance's, in the same sample order, so each variance is
  // bit-identical to it. The dimensions' updates are independent, so
  // the divisions overlap instead of chaining through one mean.
  constexpr std::size_t kBlock = 16;
  const std::size_t dims = points.dims();
  std::size_t best_dim = 0;
  double best_var = -1.0;
  for (std::size_t first = 0; first < dims; first += kBlock) {
    const std::size_t width = std::min(kBlock, dims - first);
    const float* cols[kBlock] = {};
    double mean[kBlock] = {};
    double m2[kBlock] = {};
    for (std::size_t j = 0; j < width; ++j) {
      cols[j] = points.coordinate(first + j).data();
    }
    std::uint64_t count = 0;
    for_each_strided(idx.size(), max_samples, [&](std::uint64_t s) {
      const std::uint64_t row = idx[s];
      ++count;
      const double n = static_cast<double>(count);
      for (std::size_t j = 0; j < width; ++j) {
        const float v = cols[j][row];
        const double delta = v - mean[j];
        mean[j] += delta / n;
        m2[j] += delta * (v - mean[j]);
      }
    });
    for (std::size_t j = 0; j < width; ++j) {
      const double var =
          count == 0 ? 0.0 : m2[j] / static_cast<double>(count);
      if (var > best_var) {
        best_var = var;
        best_dim = first + j;
      }
    }
  }
  if (variance_out != nullptr) *variance_out = best_var;
  return best_dim;
}

std::size_t pick_split_boundary(std::span<const std::uint64_t> hist,
                                std::uint64_t total, double fraction) {
  PANDA_CHECK(hist.size() >= 2);
  const std::size_t boundary_count = hist.size() - 1;
  const double target = fraction * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  std::size_t best = 0;
  double best_err = std::numeric_limits<double>::infinity();
  // Cumulative count through bin B = number of points strictly below
  // boundaries[B] (IntervalSearcher convention: bin(v) <= B iff
  // v < boundaries[B]).
  for (std::size_t b = 0; b < boundary_count; ++b) {
    cumulative += hist[b];
    const double err = std::abs(static_cast<double>(cumulative) - target);
    if (err < best_err) {
      best_err = err;
      best = b;
    }
  }
  return best;
}

}  // namespace panda::core
