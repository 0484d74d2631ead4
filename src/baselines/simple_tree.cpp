#include "baselines/simple_tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"

namespace panda::baselines {

SimpleKdTree SimpleKdTree::build(const data::PointSet& points,
                                 const SimpleBuildConfig& config) {
  SimpleKdTree tree;
  tree.dims_ = points.dims();
  tree.count_ = points.size();
  tree.config_ = config;
  PANDA_CHECK(config.bucket_size >= 1);

  tree.aos_.resize(points.size() * points.dims());
  tree.ids_.assign(points.ids().begin(), points.ids().end());
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const auto coords = points.coordinate(d);
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      tree.aos_[i * points.dims() + d] = coords[i];
    }
  }
  tree.order_.resize(points.size());
  for (std::uint64_t i = 0; i < points.size(); ++i) tree.order_[i] = i;

  if (points.size() > 0) {
    const auto box = points.bounding_box();
    std::vector<float> lo = box.lo;
    std::vector<float> hi = box.hi;
    tree.build_node(0, points.size(), lo, hi, 1);
  }
  return tree;
}

std::uint32_t SimpleKdTree::build_node(std::uint64_t lo, std::uint64_t hi,
                                       std::vector<float>& box_lo,
                                       std::vector<float>& box_hi,
                                       std::uint32_t depth) {
  const std::uint32_t me = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  max_depth_ = std::max(max_depth_, depth);
  const std::uint64_t n = hi - lo;
  if (n <= config_.bucket_size) {
    nodes_[me].begin = lo;
    nodes_[me].end = hi;
    return me;
  }

  std::size_t dim = 0;
  float split = 0.0f;
  std::uint64_t mid = lo;
  switch (config_.policy) {
    case SplitPolicy::FlannStyle: {
      // Variance and mean over the first `flann_samples` points of the
      // node (FLANN scans the head of its index array).
      const std::uint64_t samples =
          std::min<std::uint64_t>(n, config_.flann_samples);
      double best_var = -1.0;
      double best_mean = 0.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        double mean = 0.0;
        double m2 = 0.0;
        for (std::uint64_t i = 0; i < samples; ++i) {
          const double v = coord(order_[lo + i], d);
          const double delta = v - mean;
          mean += delta / static_cast<double>(i + 1);
          m2 += delta * (v - mean);
        }
        const double var = m2 / static_cast<double>(samples);
        if (var > best_var) {
          best_var = var;
          best_mean = mean;
          dim = d;
        }
      }
      split = static_cast<float>(best_mean);
      break;
    }
    case SplitPolicy::AnnStyle: {
      // Maximum-extent dimension, midpoint split.
      float best_extent = -1.0f;
      for (std::size_t d = 0; d < dims_; ++d) {
        const float extent = box_hi[d] - box_lo[d];
        if (extent > best_extent) {
          best_extent = extent;
          dim = d;
        }
      }
      split = 0.5f * (box_lo[dim] + box_hi[dim]);
      break;
    }
    case SplitPolicy::ExactMedian: {
      double best_var = -1.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        // Variance over up to 256 strided samples.
        const std::uint64_t samples = std::min<std::uint64_t>(n, 256);
        double mean = 0.0;
        double m2 = 0.0;
        for (std::uint64_t i = 0; i < samples; ++i) {
          const double v = coord(order_[lo + i * n / samples], d);
          const double delta = v - mean;
          mean += delta / static_cast<double>(i + 1);
          m2 += delta * (v - mean);
        }
        const double var = m2 / static_cast<double>(samples);
        if (var > best_var) {
          best_var = var;
          dim = d;
        }
      }
      mid = lo + n / 2;
      std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(lo),
                       order_.begin() + static_cast<std::ptrdiff_t>(mid),
                       order_.begin() + static_cast<std::ptrdiff_t>(hi),
                       [&](std::uint64_t a, std::uint64_t b) {
                         return coord(a, dim) < coord(b, dim);
                       });
      split = coord(order_[mid], dim);
      break;
    }
  }

  if (config_.policy != SplitPolicy::ExactMedian) {
    auto* first = order_.data() + lo;
    auto* last = order_.data() + hi;
    auto* pivot = std::partition(first, last, [&](std::uint64_t p) {
      return coord(p, dim) < split;
    });
    mid = lo + static_cast<std::uint64_t>(pivot - first);
    if (mid == lo || mid == hi) {
      // ANN's sliding-midpoint rescue (also applied to a degenerate
      // FLANN mean): move the split to the nearest point coordinate so
      // at least one point changes sides.
      float lo_val = std::numeric_limits<float>::max();
      float hi_val = std::numeric_limits<float>::lowest();
      for (std::uint64_t i = lo; i < hi; ++i) {
        const float v = coord(order_[i], dim);
        lo_val = std::min(lo_val, v);
        hi_val = std::max(hi_val, v);
      }
      if (lo_val == hi_val) {
        // All points identical on this dimension; fall back to the
        // positional median to guarantee progress.
        mid = lo + n / 2;
        std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(lo),
                         order_.begin() + static_cast<std::ptrdiff_t>(mid),
                         order_.begin() + static_cast<std::ptrdiff_t>(hi),
                         [&](std::uint64_t a, std::uint64_t b) {
                           return coord(a, dim) < coord(b, dim);
                         });
        split = coord(order_[mid], dim);
      } else {
        split = mid == lo ? std::nextafter(lo_val,
                                           std::numeric_limits<float>::max())
                          : hi_val;
        pivot = std::partition(first, last, [&](std::uint64_t p) {
          return coord(p, dim) < split;
        });
        mid = lo + static_cast<std::uint64_t>(pivot - first);
        PANDA_ASSERT(mid != lo && mid != hi);
      }
    }
  }

  nodes_[me].dim = static_cast<std::uint32_t>(dim);
  nodes_[me].split = split;

  // Recurse with the bounding box narrowed for the ANN policy.
  const float saved_hi = box_hi[dim];
  box_hi[dim] = split;
  const std::uint32_t left = build_node(lo, mid, box_lo, box_hi, depth + 1);
  box_hi[dim] = saved_hi;
  const float saved_lo = box_lo[dim];
  box_lo[dim] = split;
  const std::uint32_t right = build_node(mid, hi, box_lo, box_hi, depth + 1);
  box_lo[dim] = saved_lo;

  nodes_[me].left = left;
  nodes_[me].right = right;
  return me;
}

void SimpleKdTree::scan_leaf(const Node& node, const float* q,
                             core::KnnHeap& heap,
                             core::QueryStats& stats) const {
  stats.leaves_visited += 1;
  for (std::uint64_t i = node.begin; i < node.end; ++i) {
    const std::uint64_t p = order_[i];
    const float* row = aos_.data() + p * dims_;
    float acc = 0.0f;
    for (std::size_t d = 0; d < dims_; ++d) {
      const float diff = q[d] - row[d];
      acc += diff * diff;
    }
    stats.points_scanned += 1;
    // Non-strict, as in core::KdTree::scan_leaf: ties at the bound are
    // resolved by id inside offer().
    if (acc <= heap.bound()) heap.offer(acc, ids_[p]);
  }
}

void SimpleKdTree::search(std::uint32_t v, const float* q,
                          core::KnnHeap& heap, float region_dist2,
                          float* offsets, core::QueryStats& stats) const {
  const Node& node = nodes_[v];
  stats.nodes_visited += 1;
  if (node.dim == kLeaf) {
    scan_leaf(node, q, heap, stats);
    return;
  }
  const float diff = q[node.dim] - node.split;
  const std::uint32_t near = diff < 0.0f ? node.left : node.right;
  const std::uint32_t far = diff < 0.0f ? node.right : node.left;
  search(near, q, heap, region_dist2, offsets, stats);
  const float old_offset = offsets[node.dim];
  const float far_dist2 =
      region_dist2 - old_offset * old_offset + diff * diff;
  // Not `<=`: once the squares overflow, inf - inf is NaN, and a NaN
  // bound must visit the region, as in core::KdTree::search_exact.
  if (!(far_dist2 > heap.bound() * core::kBoundSlack)) {
    offsets[node.dim] = diff;
    search(far, q, heap, far_dist2, offsets, stats);
    offsets[node.dim] = old_offset;
  }
}

std::vector<core::Neighbor> SimpleKdTree::query(std::span<const float> query,
                                                std::size_t k, float radius,
                                                core::QueryStats* stats) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  core::QueryStats local_stats;
  core::KnnHeap heap(k);
  if (!nodes_.empty()) {
    const bool bounded = radius < std::numeric_limits<float>::infinity();
    if (bounded) {
      const float r2 = radius * radius;
      for (std::size_t i = 0; i < k; ++i) heap.offer(r2, ~std::uint64_t{0});
    }
    std::vector<float> offsets(dims_, 0.0f);
    search(0, query.data(), heap, 0.0f, offsets.data(), local_stats);
    if (stats != nullptr) *stats += local_stats;
    auto sorted = heap.take_sorted();
    if (bounded) {
      while (!sorted.empty() && sorted.back().id == ~std::uint64_t{0}) {
        sorted.pop_back();
      }
    }
    return sorted;
  }
  return {};
}

void SimpleKdTree::query_batch(const data::PointSet& queries, std::size_t k,
                               parallel::ThreadPool& pool,
                               std::vector<std::vector<core::Neighbor>>& results,
                               core::QueryStats* stats) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  results.assign(queries.size(), {});
  std::vector<core::QueryStats> per_thread(
      static_cast<std::size_t>(pool.size()));
  parallel::parallel_for_dynamic(
      pool, 0, queries.size(), 64,
      [&](int tid, std::uint64_t a, std::uint64_t b) {
        std::vector<float> q(dims_);
        for (std::uint64_t i = a; i < b; ++i) {
          queries.copy_point(i, q.data());
          results[i] =
              query(q, k, std::numeric_limits<float>::infinity(),
                    &per_thread[static_cast<std::size_t>(tid)]);
        }
      });
  if (stats != nullptr) {
    for (const auto& s : per_thread) *stats += s;
  }
}

}  // namespace panda::baselines
