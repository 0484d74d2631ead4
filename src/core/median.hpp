// Split-selection heuristics shared by the local and global kd-trees.
//
// Section III-A1 of the paper: the split dimension is the one with
// maximum variance over a sample (FLANN-like, vs ANN's max range); the
// split point is an approximate median chosen from a histogram whose
// non-uniform bin boundaries are sampled coordinate values. The same
// machinery serves three callers:
//   * local kd-tree, data-parallel phase — boundaries sampled locally,
//     histogram counted cooperatively by threads (IntervalSearcher);
//   * local kd-tree, thread-parallel phase — small subtrees use the
//     cheaper sample-median / exact positional median;
//   * out-of-core build — the top splitter's max-variance dimension
//     (core/kdtree_external.cpp).
// The global kd-tree (dist/dist_kdtree.cpp) samples the same strided
// positions per rank but chooses from the allgathered sample itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/storage.hpp"

namespace panda::core {

// The single-dimension primitives work on one dimension's contiguous
// coordinate span, whatever storage backend it came from. All of them
// read the strided sample positions of common/sampling.hpp in place
// (for_each_strided); only the sorted sample that sample_boundaries
// returns is allocated.

/// Variance of `coords` over the points selected by `idx`, using at
/// most `max_samples` strided samples (Welford, dividing by the
/// running count). The RoundRobin policy's degeneracy check.
double sampled_variance(std::span<const float> coords,
                        std::span<const std::uint64_t> idx,
                        std::size_t max_samples);

/// Strided sample of `coords` values over `idx`, sorted ascending —
/// the histogram's non-uniform bin boundaries.
std::vector<float> sample_boundaries(std::span<const float> coords,
                                     std::span<const std::uint64_t> idx,
                                     std::size_t max_samples);

/// Approximate median: the middle of a sorted sample. Cheap path used
/// by the serial thread-parallel phase.
float sample_median(std::span<const float> coords,
                    std::span<const std::uint64_t> idx,
                    std::size_t max_samples);

/// Dimension with maximum sampled variance (the first one on ties).
/// Returns the dimension and writes the winning variance to
/// *variance_out if non-null. One pass over the sample positions
/// updates every dimension's Welford state, with the operations of
/// sampled_variance per dimension: the variances, and so the chosen
/// dimension, equal a per-dimension sampled_variance loop bit for bit.
/// Allocates nothing.
std::size_t choose_dimension_by_variance(const data::PointStorage& points,
                                         std::span<const std::uint64_t> idx,
                                         std::size_t max_samples,
                                         double* variance_out = nullptr);

/// Given per-bin counts (hist.size() == boundaries.size() + 1, bin
/// convention of simd::IntervalSearcher), chooses the boundary index B
/// whose cumulative count (points strictly below boundaries[B]) is
/// closest to fraction*total. Returns boundaries.size() == npos-like
/// value only if boundaries is empty.
std::size_t pick_split_boundary(std::span<const std::uint64_t> hist,
                                std::uint64_t total, double fraction);

}  // namespace panda::core
