#include "core/median.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

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

namespace {

/// The strided sample of `coords` over `idx`, in sample order.
std::vector<float> strided_sample(std::span<const float> coords,
                                  std::span<const std::uint64_t> idx,
                                  std::size_t max_samples) {
  std::vector<float> values;
  values.reserve(std::min<std::uint64_t>(idx.size(), max_samples));
  for_each_strided(idx.size(), max_samples,
                   [&](std::uint64_t s) { values.push_back(coords[idx[s]]); });
  return values;
}

}  // namespace

std::vector<float> sample_boundaries(std::span<const float> coords,
                                     std::span<const std::uint64_t> idx,
                                     std::size_t max_samples) {
  std::vector<float> values = strided_sample(coords, idx, max_samples);
  std::sort(values.begin(), values.end());
  return values;
}

float sample_median(std::span<const float> coords,
                    std::span<const std::uint64_t> idx,
                    std::size_t max_samples) {
  PANDA_CHECK(!idx.empty());
  std::vector<float> values = strided_sample(coords, idx, max_samples);
  const auto middle =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), middle, values.end());
  return *middle;
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

namespace {

/// The pivot of one select_kth round over [a, b), from the coordinates
/// at the range's quartile positions (`coord(i)`): the one whose rank
/// among the three matches k's place in the range (the smallest when k
/// lies in the first quarter, the largest in the last, else the middle
/// one), so the side that keeps k shrinks fast wherever k sits.
template <typename Coord>
float choose_pivot(const Coord& coord, std::size_t a, std::size_t b,
                   std::size_t k) {
  const std::size_t m = b - a;
  const float s0 = coord(a + m / 4);
  const float s1 = coord(a + m / 2);
  const float s2 = coord(a + 3 * m / 4);
  const std::size_t rank = k - a;
  if (4 * rank < m) return std::min(std::min(s0, s1), s2);
  if (4 * rank >= 3 * m) return std::max(std::max(s0, s1), s2);
  return std::max(std::min(s0, s1), std::min(std::max(s0, s1), s2));
}

/// One select_kth round: stores every entry `key(i)` of [a, b) into
/// dst[a, b), those that go left (below the pivot, or not above it
/// when kNotAbove) at the front in input order and the others at the
/// back in reverse order. Each entry is compared once and stored as one
/// 8-byte word. The front cursor is the loop's only carried state:
/// after i - front entries went right, the next one lands at
/// b - 1 - (i - front), so a mask picks the store address without a
/// branch. Returns the end of the front.
template <bool kNotAbove, typename Key>
std::size_t split_pass(const Key& key, SplitKey* dst, std::size_t a,
                       std::size_t b, float pivot) {
  std::size_t front = a;
  for (std::size_t i = a; i < b; ++i) {
    const std::uint64_t word = key(i);
    const float c = std::bit_cast<SplitKey>(word).coord;
    const std::size_t left = kNotAbove ? !(pivot < c) : c < pivot;
    std::memcpy(dst + front + ((left - 1) & (b - 1 - i)), &word, sizeof word);
    front += left;
  }
  return front;
}

}  // namespace

float select_kth(std::span<const float> coords,
                 std::span<const std::uint64_t> idx, std::size_t k,
                 std::span<SplitKey> keys) {
  const std::size_t n = idx.size();
  PANDA_CHECK_MSG(k < n, "select_kth: position " << k << " of " << n);
  PANDA_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "select_kth: " << n << " entries exceed 32-bit offsets");
  PANDA_CHECK_MSG(keys.size() >= 2 * n,
                  "select_kth: buffer of " << keys.size() << " for " << n);
  // Rounds alternate between the two halves of `keys`; whatever a round
  // leaves outside the searched range is final and lives in `home`.
  // The first round reads the node itself, {coords[idx[j]], j}, and
  // writes the other half.
  SplitKey* const home = keys.data();
  SplitKey* src = nullptr;
  SplitKey* dst = home + n;
  std::size_t a = 0;
  std::size_t b = n;
  // One round over [a, b): returns the end of the front and whether
  // the search is over (k fell among the entries equal to the pivot).
  const auto split_round = [&](const auto& coord, const auto& key) {
    const float pivot = choose_pivot(coord, a, b, k);
    const std::size_t mid = split_pass<false>(key, dst, a, b, pivot);
    if (mid != a) return std::pair{mid, false};
    // Nothing lies below the pivot: put the entries equal to it in
    // front. They hold k, or they are split off.
    const std::size_t equal_end = split_pass<true>(key, dst, a, b, pivot);
    return std::pair{equal_end, k < equal_end};
  };
  const auto node_coord = [&](std::size_t j) { return coords[idx[j]]; };
  const auto node_word = [&](std::size_t j) {
    return std::bit_cast<std::uint64_t>(
        SplitKey{coords[idx[j]], static_cast<std::uint32_t>(j)});
  };
  const auto key_coord = [&](std::size_t j) { return src[j].coord; };
  const auto key_word = [&](std::size_t j) {
    std::uint64_t word;
    std::memcpy(&word, src + j, sizeof word);
    return word;
  };
  // Every round removes at least its pivot, but an order that defeats
  // the pivot rule could remove little per round: past a logarithmic
  // number of rounds the rest of the range is sorted instead.
  std::size_t rounds_left =
      2 * static_cast<std::size_t>(std::bit_width(n)) + 16;
  while (b - a > 1) {
    if (rounds_left-- == 0) {
      std::sort(src + a, src + b, [](const SplitKey& x, const SplitKey& y) {
        return x.coord < y.coord;
      });
      break;
    }
    const auto [mid, found] = src == nullptr
                                  ? split_round(node_coord, node_word)
                                  : split_round(key_coord, key_word);
    const std::size_t lo = found ? k : (k < mid ? a : mid);
    const std::size_t hi = found ? k : (k < mid ? mid : b);
    if (dst != home) {
      std::copy(dst + a, dst + lo, home + a);
      std::copy(dst + hi, dst + b, home + hi);
    }
    a = lo;
    b = hi;
    src = dst;
    dst = src == home ? home + n : home;
  }
  if (src == nullptr) {
    home[0] = {coords[idx[0]], 0};  // a single entry: nothing to select
  } else if (src != home) {
    std::copy(src + a, src + b, home + a);
  }
  return home[k].coord;
}

std::size_t partition_below(std::span<const float> coords,
                            std::span<std::uint64_t> idx, float split,
                            std::span<std::uint64_t> scratch) {
  const std::size_t n = idx.size();
  PANDA_CHECK_MSG(scratch.size() >= n,
                  "partition_below: scratch of " << scratch.size() << " for "
                                                 << n);
  std::uint64_t* const out = scratch.data();
  std::size_t front = 0;  // as in split_pass: the only carried cursor
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = idx[i];
    const std::size_t below = coords[p] < split;
    out[front + ((below - 1) & (n - 1 - i))] = p;
    front += below;
  }
  std::copy(out, out + n, idx.begin());
  return front;
}

}  // namespace panda::core
