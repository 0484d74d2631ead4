// Global kd-tree reconstruction and geometric queries.
#include "dist/global_tree.hpp"

#include <map>
#include <utility>

#include "common/error.hpp"
#include "core/knn_heap.hpp"  // kBoundSlack

namespace panda::dist {

std::int32_t GlobalTree::build_group(
    int lo, int hi, int depth, const RecordIndex& records) {
  const std::int32_t index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  if (hi - lo == 1) {
    nodes_[static_cast<std::size_t>(index)].rank = lo;
    leaf_depths_[static_cast<std::size_t>(lo)] = depth;
    return index;
  }
  const auto it = records.find({lo, hi});
  PANDA_CHECK_MSG(it != records.end(), "missing split record for rank group ["
                                           << lo << ", " << hi << ")");
  const SplitRecord* record = it->second;
  PANDA_CHECK_MSG(record->mid > lo && record->mid < hi,
                  "split record mid " << record->mid
                                      << " outside rank group (" << lo << ", "
                                      << hi << ")");
  PANDA_CHECK_MSG(record->dim < dims_,
                  "split record dimension " << record->dim
                                            << " out of range for " << dims_
                                            << "-dimensional tree");
  Node node;
  node.dim = record->dim;
  node.split = record->split;
  const int mid = record->mid;
  nodes_[static_cast<std::size_t>(index)] = node;
  const std::int32_t left = build_group(lo, mid, depth + 1, records);
  const std::int32_t right = build_group(mid, hi, depth + 1, records);
  nodes_[static_cast<std::size_t>(index)].left = left;
  nodes_[static_cast<std::size_t>(index)].right = right;
  return index;
}

GlobalTree GlobalTree::from_records(int ranks, std::size_t dims,
                                    const std::vector<SplitRecord>& records) {
  PANDA_CHECK_MSG(ranks >= 1, "global tree needs at least one rank");
  PANDA_CHECK_MSG(dims >= 1, "global tree needs at least one dimension");
  GlobalTree tree;
  tree.ranks_ = ranks;
  tree.dims_ = dims;
  tree.leaf_depths_.assign(static_cast<std::size_t>(ranks), 0);
  tree.nodes_.reserve(2 * static_cast<std::size_t>(ranks) - 1);
  RecordIndex index;
  for (const SplitRecord& r : records) {
    const bool inserted = index.emplace(std::pair{r.lo, r.hi}, &r).second;
    PANDA_CHECK_MSG(inserted, "duplicate split record for rank group ["
                                  << r.lo << ", " << r.hi << ")");
  }
  // A full binary tree over `ranks` leaves has exactly ranks - 1
  // internal nodes; with duplicates excluded above and missing groups
  // throwing below, this rejects stray records the build never visits.
  PANDA_CHECK_MSG(records.size() == static_cast<std::size_t>(ranks) - 1,
                  "expected " << ranks - 1 << " split records for " << ranks
                              << " ranks, got " << records.size());
  tree.build_group(0, ranks, 0, index);
  tree.records_ = records;
  return tree;
}

int GlobalTree::owner_of(std::span<const float> point) const {
  PANDA_CHECK_MSG(point.size() == dims_,
                  "owner_of: point dimensionality mismatch");
  std::int32_t v = 0;
  while (!is_leaf(nodes_[static_cast<std::size_t>(v)])) {
    const Node& n = nodes_[static_cast<std::size_t>(v)];
    v = point[n.dim] < n.split ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(v)].rank;
}

int GlobalTree::leaf_depth(int rank) const {
  PANDA_CHECK_MSG(rank >= 0 && rank < ranks_, "leaf_depth: rank out of range");
  return leaf_depths_[static_cast<std::size_t>(rank)];
}

void GlobalTree::collect_ball(std::int32_t node_index, const float* center,
                              float region_dist2, float radius2, bool closed,
                              float* offsets, std::vector<int>& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (is_leaf(node)) {
    out.push_back(node.rank);
    return;
  }
  const std::size_t dim = node.dim;
  const float diff = center[dim] - node.split;
  const std::int32_t near = diff < 0.0f ? node.left : node.right;
  // Arya–Mount incremental lower bound, as in KdTree::search_exact:
  // the far region replaces this dimension's previous plane offset.
  const float old_offset = offsets[dim];
  // core::kBoundSlack widens the test: the incremental bound and the
  // distances the contacted rank computes round differently, and a
  // boundary rank wrongly skipped cannot return its tied candidates.
  // Extra ranks only cost an empty response.
  const float far_dist2 =
      region_dist2 - old_offset * old_offset + diff * diff;
  const float widened = radius2 * core::kBoundSlack;
  // Negated so that a NaN bound (inf - inf once the squares overflow,
  // far from every split) counts as overlapping.
  const bool overlaps =
      closed ? !(far_dist2 > widened) : !(far_dist2 >= widened);
  // Visit children in tree order (left, right) so the collected ranks
  // come out ascending; near/far order would interleave them.
  for (const std::int32_t child : {node.left, node.right}) {
    if (child == near) {
      collect_ball(child, center, region_dist2, radius2, closed, offsets,
                   out);
    } else if (overlaps) {
      offsets[dim] = diff;
      collect_ball(child, center, far_dist2, radius2, closed, offsets, out);
      offsets[dim] = old_offset;
    }
  }
}

void GlobalTree::ranks_in_ball(std::span<const float> center, float radius2,
                               std::vector<int>& out,
                               std::vector<float>& offsets) const {
  PANDA_CHECK_MSG(center.size() == dims_,
                  "ranks_in_ball: center dimensionality mismatch");
  out.clear();
  if (!(0.0f < radius2)) return;  // empty ball (also rejects NaN)
  offsets.assign(dims_, 0.0f);
  collect_ball(0, center.data(), 0.0f, radius2, /*closed=*/false,
               offsets.data(), out);
}

void GlobalTree::ranks_in_closed_ball(std::span<const float> center,
                                      float radius2, std::vector<int>& out,
                                      std::vector<float>& offsets) const {
  PANDA_CHECK_MSG(center.size() == dims_,
                  "ranks_in_closed_ball: center dimensionality mismatch");
  out.clear();
  if (!(0.0f <= radius2)) return;  // rejects negatives and NaN
  offsets.assign(dims_, 0.0f);
  collect_ball(0, center.data(), 0.0f, radius2, /*closed=*/true,
               offsets.data(), out);
}

}  // namespace panda::dist
