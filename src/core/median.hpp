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
//     and sample median (core/kdtree_external.cpp).
// The global kd-tree (dist/dist_kdtree.cpp) samples the same strided
// positions per rank but chooses from the allgathered sample itself.
//
// Both builders move points with the two branch-free kernels at the
// end of this file: select_kth (the exact positional median) and
// partition_below (the split by value).
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

/// Approximate median: the value a sort of the strided sample would
/// put in its middle (picked with std::nth_element, not a sort). Cheap
/// path used by the serial thread-parallel phase.
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

/// One entry of select_kth's buffer: a point's coordinate on the split
/// dimension and its offset in the node's index range.
struct SplitKey {
  float coord;
  std::uint32_t offset;
};

/// Exact positional selection over one node, the kernel behind the
/// positional median split. Leaves the entries {coords[idx[j]], j} for
/// every j of the node, n = idx.size() < 2^32 of them, in keys[0, n),
/// arranged so that keys[k] holds the coordinate a sort would put at
/// position k, no entry before it larger and no entry after it smaller
/// (the contract of std::nth_element; which of several equal
/// coordinates lands where is unspecified). Returns keys[k].coord.
///
/// A quickselect whose every round is one branch-free pass over the
/// range (the first reads the node through idx): each entry is
/// compared with the pivot once and stored at the front (below the
/// pivot) or the back (the rest) of the range in the other half of
/// `keys`, with only the front cursor carried between entries, and the
/// search goes on in the side that holds k. A pivot that is the
/// range's smallest value leaves nothing below it; then the pass is
/// repeated with the entries equal to the pivot in front, which either
/// hold k (the search ends, as on all-equal or two-valued coordinates)
/// or are split off. Every round therefore shrinks the range, and past
/// 2 log2(n) + 16 rounds the rest is sorted. `keys` must hold 2n
/// entries; nothing is allocated.
float select_kth(std::span<const float> coords,
                 std::span<const std::uint64_t> idx, std::size_t k,
                 std::span<SplitKey> keys);

/// Partitions idx in place by coords[idx[j]] < split and returns the
/// number of entries below split, which come first in input order; the
/// others follow in reverse input order. One branch-free pass stores
/// every entry into `scratch` (at least idx.size() entries) from the
/// front or the back, then the range is copied back. Allocates
/// nothing.
std::size_t partition_below(std::span<const float> coords,
                            std::span<std::uint64_t> idx, float split,
                            std::span<std::uint64_t> scratch);

}  // namespace panda::core
