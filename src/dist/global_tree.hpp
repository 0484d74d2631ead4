// The global kd-tree (paper Section III-B): the replicated top of the
// distributed tree, with one leaf per rank.
//
// Each internal node splits a contiguous rank group [lo, hi) into
// [lo, mid) and [mid, hi) by a hyperplane (dim, split); points with
// coordinate < split belong to the left group, ties go right. Every
// rank holds an identical copy (the tree is O(P) records, allgathered
// during construction), so both owner lookup (query stage 1) and
// ball-overlap pruning (stage 3, "identify remote nodes") are local
// operations everywhere.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace panda::dist {

/// One internal node of the global tree, in wire format: rank group
/// [lo, hi) splits at rank `mid` on hyperplane coordinate[dim] = split.
/// Trivially copyable so records can travel through net::Comm
/// collectives unmodified.
struct SplitRecord {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  std::int32_t mid = 0;
  std::uint32_t dim = 0;
  float split = 0.0f;
};

class GlobalTree {
 public:
  GlobalTree() = default;

  /// Reconstructs the tree for `ranks` ranks over `dims`-dimensional
  /// space from its split records (any order). Every rank group of
  /// size >= 2 reachable from the root [0, ranks) must have exactly
  /// one record; a missing or inconsistent record throws panda::Error.
  static GlobalTree from_records(int ranks, std::size_t dims,
                                 const std::vector<SplitRecord>& records);

  int ranks() const { return ranks_; }
  std::size_t dims() const { return dims_; }
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<SplitRecord>& records() const { return records_; }

  /// The rank whose region contains `point` (dims() floats). Total:
  /// every point of R^dims has exactly one owner; coordinates exactly
  /// on a split plane go right, matching the construction partition.
  int owner_of(std::span<const float> point) const;

  /// Number of splits on the root-to-leaf path of `rank` (0 when the
  /// tree is a single leaf).
  int leaf_depth(int rank) const;

  /// Ranks whose region intersects the open ball of squared radius
  /// `radius2` around `center`, ascending, into `out` (cleared first).
  /// A region intersects when its minimum squared distance to `center`
  /// is strictly below `radius2` (the same strict-< convention as
  /// query_radius), so with radius2 = +inf every rank is returned and
  /// with radius2 = 0 none. `offsets` is the caller's per-dimension
  /// scratch: with warm buffers the call makes no allocation.
  void ranks_in_ball(std::span<const float> center, float radius2,
                     std::vector<int>& out,
                     std::vector<float>& offsets) const;

  /// Closed-ball variant: regions whose minimum squared distance is
  /// <= `radius2`. The KNN engines use this for stage-3 pruning — a
  /// remote candidate exactly at the owner's k-th distance can still
  /// win its tie by id (DESIGN.md §5), so boundary-touching ranks must
  /// be contacted. With radius2 = 0 the ranks whose region touches
  /// `center` are returned (never empty).
  void ranks_in_closed_ball(std::span<const float> center, float radius2,
                            std::vector<int>& out,
                            std::vector<float>& offsets) const;

 private:
  struct Node {
    std::uint32_t dim = 0;
    float split = 0.0f;
    std::int32_t left = -1;   // node index
    std::int32_t right = -1;  // node index
    std::int32_t rank = -1;   // >= 0 marks a leaf
  };

  bool is_leaf(const Node& n) const { return n.rank >= 0; }
  /// Records indexed by rank group, built once so reconstruction stays
  /// O(P log P) instead of rescanning the record list per group.
  using RecordIndex =
      std::map<std::pair<int, int>, const SplitRecord*>;
  std::int32_t build_group(int lo, int hi, int depth,
                           const RecordIndex& records);
  void collect_ball(std::int32_t node_index, const float* center,
                    float region_dist2, float radius2, bool closed,
                    float* offsets, std::vector<int>& out) const;

  int ranks_ = 0;
  std::size_t dims_ = 0;
  std::vector<Node> nodes_;
  std::vector<int> leaf_depths_;  // indexed by rank
  std::vector<SplitRecord> records_;
};

}  // namespace panda::dist
