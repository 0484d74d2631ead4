// Three-phase parallel kd-tree construction (paper Section III-A).
#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/kdtree.hpp"
#include "core/median.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/distance.hpp"
#include "simd/interval_search.hpp"

namespace panda::core {

namespace {

std::uint32_t ceil_log2_u64(std::uint64_t n) {
  if (n <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(n - 1));
}

/// Build-phase node record. Construction wants free-form child links
/// (phase-2 subtrees interleave left subtrees between parents and
/// right children); the final linearize pass renumbers into the
/// query-time hot/cold layout, where sibling children are adjacent.
struct BuildNode {
  float split = 0.0f;
  std::uint32_t dim = 0xffffffffu;  // kLeafMarker => leaf
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  std::uint64_t idx_lo = 0;  // leaf: first entry of its idx_ range
  std::uint32_t count = 0;   // leaf: number of points
};

}  // namespace

class KdTreeBuilder {
 public:
  KdTreeBuilder(const data::PointStorage& points, const BuildConfig& config,
                parallel::ThreadPool& pool)
      : points_(points), config_(config), pool_(pool) {
    PANDA_CHECK_MSG(config.bucket_size >= 1, "bucket_size must be >= 1");
    PANDA_CHECK_MSG(points.dims() >= 1, "points must have dimensions");
    PANDA_CHECK_MSG(points.resident(),
                    "KdTree::build needs resident storage; use "
                    "build_external for spill-backed storage");
    depth_limit_ = 2 * ceil_log2_u64(points.size() + 1) + 64;
  }

  KdTree build(BuildBreakdown* breakdown) {
    KdTree tree;
    tree.dims_ = points_.dims();
    tree.config_ = config_;
    if (points_.empty()) {
      tree.stats_ = TreeStats{};
      return tree;
    }

    idx_.resize(points_.size());
    for (std::uint64_t i = 0; i < points_.size(); ++i) idx_[i] = i;
    scratch_.resize(points_.size());

    WallTimer watch;

    // Phase 1: data-parallel breadth-first top levels.
    std::vector<Frontier> frontier;
    nodes_.push_back(BuildNode{});
    frontier.push_back(Frontier{0, 0, points_.size(), 0});
    const std::size_t switch_branches =
        static_cast<std::size_t>(pool_.size()) * config_.thread_switch_factor;
    while (!frontier.empty() &&
           frontier.size() < std::max<std::size_t>(switch_branches, 1)) {
      std::vector<Frontier> next;
      bool split_any = false;
      // Large nodes are split with all threads cooperating on one node
      // at a time; sub-threshold nodes of the level are batched and
      // split concurrently (one node per task) — pool synchronization
      // does not amortize over small ranges.
      std::vector<Frontier> small;
      for (const Frontier& f : frontier) {
        if (f.hi - f.lo <= config_.bucket_size) {
          make_leaf(nodes_[f.node], f.lo, f.hi);
        } else if (f.hi - f.lo >= config_.serial_split_threshold) {
          split_cooperative(f, next);
          split_any = true;
        } else {
          small.push_back(f);
          split_any = true;
        }
      }
      if (!small.empty()) split_small_batch(small, next);
      frontier = std::move(next);
      if (!split_any) break;
    }
    const double data_parallel_seconds = watch.seconds();
    watch.reset();

    // Phase 2: thread-parallel depth-first subtrees.
    std::vector<std::vector<BuildNode>> subtrees(frontier.size());
    parallel::parallel_for_dynamic(
        pool_, 0, frontier.size(), 1,
        [&](int, std::uint64_t a, std::uint64_t b) {
          for (std::uint64_t s = a; s < b; ++s) {
            const Frontier& f = frontier[s];
            build_serial(subtrees[s], f.lo, f.hi, f.depth);
          }
        });
    // Merge subtree node arrays into the global array. Local index 0
    // is the frontier node itself; locals j >= 1 map to base + j - 1.
    for (std::size_t s = 0; s < frontier.size(); ++s) {
      const auto& local = subtrees[s];
      PANDA_ASSERT(!local.empty());
      const std::uint32_t base = static_cast<std::uint32_t>(nodes_.size());
      auto remap = [base](std::uint32_t local_ref) {
        PANDA_ASSERT(local_ref >= 1);
        return base + local_ref - 1;
      };
      BuildNode root = local[0];
      if (root.dim != KdTree::kLeafMarker) {
        root.left = remap(root.left);
        root.right = remap(root.right);
      }
      nodes_[frontier[s].node] = root;
      for (std::size_t j = 1; j < local.size(); ++j) {
        BuildNode n = local[j];
        if (n.dim != KdTree::kLeafMarker) {
          n.left = remap(n.left);
          n.right = remap(n.right);
        }
        nodes_.push_back(n);
      }
    }
    const double thread_parallel_seconds = watch.seconds();
    watch.reset();

    // Phase 3: linearize into the query-time hot/cold layout (sibling
    // children adjacent), then SIMD-pack the leaf buckets.
    linearize(tree);
    pack_leaves(tree);
    tree.rebind_owned();
    const double packing_seconds = watch.seconds();

    compute_stats(tree);
    if (breakdown != nullptr) {
      breakdown->data_parallel = data_parallel_seconds;
      breakdown->thread_parallel = thread_parallel_seconds;
      breakdown->simd_packing = packing_seconds;
    }
    return tree;
  }

 private:
  struct Frontier {
    std::uint32_t node;
    std::uint64_t lo;
    std::uint64_t hi;
    std::uint32_t depth;
  };

  /// Split-dimension selection per BuildConfig::dim_policy. Always
  /// reports the chosen dimension's sampled variance so callers can
  /// detect degenerate (all-equal) nodes.
  std::size_t choose_dimension(std::uint64_t lo, std::uint64_t hi,
                               std::uint32_t depth, double* variance) {
    if (config_.dim_policy == BuildConfig::DimensionPolicy::RoundRobin) {
      const std::size_t dim = depth % points_.dims();
      *variance = sampled_variance(points_.coordinate(dim), idx_span(lo, hi),
                                   config_.variance_samples);
      return dim;
    }
    return choose_dimension_by_variance(points_, idx_span(lo, hi),
                                        config_.variance_samples, variance);
  }

  void make_leaf(BuildNode& node, std::uint64_t lo, std::uint64_t hi) {
    node.dim = KdTree::kLeafMarker;
    node.idx_lo = lo;
    node.count = static_cast<std::uint32_t>(hi - lo);
  }

  std::span<const std::uint64_t> idx_span(std::uint64_t lo,
                                          std::uint64_t hi) const {
    return {idx_.data() + lo, hi - lo};
  }

  struct SplitDecision {
    std::size_t dim = 0;
    float split = 0.0f;
    std::uint64_t mid = 0;
  };

  /// Positional (exact) median split — the degeneracy-proof fallback:
  /// both sides are non-empty for any input, including all-identical
  /// coordinates.
  SplitDecision positional_split(std::uint64_t lo, std::uint64_t hi,
                                 std::size_t dim) {
    SplitDecision d;
    d.dim = dim;
    d.mid = lo + (hi - lo) / 2;
    const auto coords = points_.coordinate(dim);
    std::nth_element(idx_.begin() + static_cast<std::ptrdiff_t>(lo),
                     idx_.begin() + static_cast<std::ptrdiff_t>(d.mid),
                     idx_.begin() + static_cast<std::ptrdiff_t>(hi),
                     [&coords](std::uint64_t a, std::uint64_t b) {
                       return coords[a] < coords[b];
                     });
    d.split = coords[idx_[d.mid]];
    return d;
  }

  /// Serial split of one node: sampled variance for the dimension,
  /// sampled median for the value, positional fallback on degeneracy.
  /// Thread-safe for disjoint [lo, hi) ranges.
  SplitDecision decide_split_serial(std::uint64_t lo, std::uint64_t hi,
                                    std::uint32_t depth) {
    const std::uint64_t n = hi - lo;
    double variance = 0.0;
    const std::size_t dim = choose_dimension(lo, hi, depth, &variance);
    const bool sampled = n > config_.exact_median_threshold &&
                         variance > 0.0 && depth <= depth_limit_;
    if (sampled) {
      SplitDecision d;
      d.dim = dim;
      const auto coords = points_.coordinate(dim);
      d.split = sample_median(coords, idx_span(lo, hi), config_.median_samples);
      auto* first = idx_.data() + lo;
      auto* last = idx_.data() + hi;
      auto* pivot = std::partition(first, last, [&](std::uint64_t p) {
        return coords[p] < d.split;
      });
      d.mid = lo + static_cast<std::uint64_t>(pivot - first);
      if (d.mid != lo && d.mid != hi) return d;
    }
    return positional_split(lo, hi, dim);
  }

  /// Allocates child nodes and records the split (single-threaded
  /// bookkeeping shared by the cooperative and batched paths).
  void emit_children(const Frontier& f, const SplitDecision& d,
                     std::uint32_t left, std::uint32_t right,
                     std::vector<Frontier>& next) {
    BuildNode& node = nodes_[f.node];
    node.dim = static_cast<std::uint32_t>(d.dim);
    node.split = d.split;
    node.left = left;
    node.right = right;
    next.push_back(Frontier{left, f.lo, d.mid, f.depth + 1});
    next.push_back(Frontier{right, d.mid, f.hi, f.depth + 1});
  }

  /// Splits one large frontier node with all pool threads cooperating:
  /// sampled variance for the dimension, sampled-histogram median for
  /// the split value (paper Section III-A1), counting partition for
  /// the shuffle.
  void split_cooperative(const Frontier& f, std::vector<Frontier>& next) {
    const std::uint64_t n = f.hi - f.lo;
    double variance = 0.0;
    const std::size_t dim =
        choose_dimension(f.lo, f.hi, f.depth, &variance);

    SplitDecision d;
    bool ok = false;
    if (variance > 0.0) {
      const auto boundaries =
          sample_boundaries(points_.coordinate(dim), idx_span(f.lo, f.hi),
                            config_.median_samples);
      const simd::IntervalSearcher searcher(boundaries);
      const auto hist = parallel_histogram(f.lo, f.hi, dim, searcher);
      const std::size_t b = pick_split_boundary(hist, n, 0.5);
      d.dim = dim;
      d.split = boundaries[b];
      d.mid = parallel_partition(f.lo, f.hi, dim, d.split);
      ok = (d.mid != f.lo && d.mid != f.hi);
    }
    if (!ok) d = positional_split(f.lo, f.hi, dim);

    const std::uint32_t left = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(BuildNode{});
    const std::uint32_t right = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(BuildNode{});
    emit_children(f, d, left, right, next);
  }

  /// Splits a batch of small frontier nodes concurrently, one node per
  /// task. Children are pre-allocated serially; the parallel section
  /// touches only disjoint idx_ ranges and pre-assigned slots.
  void split_small_batch(const std::vector<Frontier>& batch,
                         std::vector<Frontier>& next) {
    std::vector<std::uint32_t> left_ids(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      left_ids[i] = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(BuildNode{});
      nodes_.push_back(BuildNode{});
    }
    std::vector<SplitDecision> decisions(batch.size());
    parallel::parallel_for_dynamic(
        pool_, 0, batch.size(), 1,
        [&](int, std::uint64_t a, std::uint64_t b) {
          for (std::uint64_t i = a; i < b; ++i) {
            decisions[i] = decide_split_serial(batch[i].lo, batch[i].hi,
                                               batch[i].depth);
          }
        });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      emit_children(batch[i], decisions[i], left_ids[i], left_ids[i] + 1,
                    next);
    }
  }

  /// Cooperative histogram: every thread bins a contiguous chunk of
  /// the node's points into a private count array; counts are reduced
  /// serially (bins are few).
  std::vector<std::uint64_t> parallel_histogram(
      std::uint64_t lo, std::uint64_t hi, std::size_t dim,
      const simd::IntervalSearcher& searcher) {
    const std::size_t bins = searcher.bin_count();
    const std::size_t threads = static_cast<std::size_t>(pool_.size());
    std::vector<std::vector<std::uint64_t>> local(
        threads, std::vector<std::uint64_t>(bins, 0));
    const auto coords = points_.coordinate(dim);
    const bool fast = config_.use_subinterval_search;
    parallel::parallel_for_static(
        pool_, lo, hi,
        [&](int tid, std::uint64_t a, std::uint64_t b) {
          auto& h = local[static_cast<std::size_t>(tid)];
          if (fast) {
            for (std::uint64_t i = a; i < b; ++i) {
              h[searcher.bin(coords[idx_[i]])]++;
            }
          } else {
            for (std::uint64_t i = a; i < b; ++i) {
              h[searcher.bin_binary_search(coords[idx_[i]])]++;
            }
          }
        });
    std::vector<std::uint64_t> hist(bins, 0);
    for (const auto& h : local) {
      for (std::size_t j = 0; j < bins; ++j) hist[j] += h[j];
    }
    return hist;
  }

  /// Stable two-pass counting partition of idx_[lo, hi) by
  /// coord < split, using scratch_ as the target buffer.
  /// Returns the boundary position.
  std::uint64_t parallel_partition(std::uint64_t lo, std::uint64_t hi,
                                   std::size_t dim, float split) {
    const std::uint64_t n = hi - lo;
    const int threads = pool_.size();
    const auto coords = points_.coordinate(dim);
    std::vector<std::uint64_t> left_counts(
        static_cast<std::size_t>(threads), 0);
    parallel::parallel_for_static(
        pool_, lo, hi, [&](int tid, std::uint64_t a, std::uint64_t b) {
          std::uint64_t c = 0;
          for (std::uint64_t i = a; i < b; ++i) {
            c += coords[idx_[i]] < split ? 1 : 0;
          }
          left_counts[static_cast<std::size_t>(tid)] = c;
        });
    std::uint64_t total_left = 0;
    std::vector<std::uint64_t> left_offsets(
        static_cast<std::size_t>(threads), 0);
    std::vector<std::uint64_t> right_offsets(
        static_cast<std::size_t>(threads), 0);
    for (int t = 0; t < threads; ++t) {
      left_offsets[static_cast<std::size_t>(t)] = total_left;
      total_left += left_counts[static_cast<std::size_t>(t)];
    }
    std::uint64_t right_running = total_left;
    for (int t = 0; t < threads; ++t) {
      auto [a, b] = parallel::static_range(n, threads, t);
      right_offsets[static_cast<std::size_t>(t)] = right_running;
      right_running +=
          (b - a) - left_counts[static_cast<std::size_t>(t)];
    }
    parallel::parallel_for_static(
        pool_, lo, hi, [&](int tid, std::uint64_t a, std::uint64_t b) {
          std::uint64_t lpos = lo + left_offsets[static_cast<std::size_t>(tid)];
          std::uint64_t rpos =
              lo + right_offsets[static_cast<std::size_t>(tid)];
          for (std::uint64_t i = a; i < b; ++i) {
            const std::uint64_t p = idx_[i];
            if (coords[p] < split) {
              scratch_[lpos++] = p;
            } else {
              scratch_[rpos++] = p;
            }
          }
        });
    parallel::parallel_for_static(
        pool_, lo, hi, [&](int, std::uint64_t a, std::uint64_t b) {
          std::memcpy(idx_.data() + a, scratch_.data() + a,
                      (b - a) * sizeof(std::uint64_t));
        });
    return lo + total_left;
  }

  /// Serial depth-first subtree construction (phase 2). Appends nodes
  /// to `out` (root is out[initial size]) and returns the root's local
  /// index.
  std::uint32_t build_serial(std::vector<BuildNode>& out, std::uint64_t lo,
                             std::uint64_t hi, std::uint32_t depth) {
    const std::uint64_t n = hi - lo;
    const std::uint32_t me = static_cast<std::uint32_t>(out.size());
    out.push_back(BuildNode{});
    if (n <= config_.bucket_size) {
      make_leaf(out[me], lo, hi);
      return me;
    }

    const SplitDecision d = decide_split_serial(lo, hi, depth);
    out[me].dim = static_cast<std::uint32_t>(d.dim);
    out[me].split = d.split;
    const std::uint32_t left = build_serial(out, lo, d.mid, depth + 1);
    const std::uint32_t right = build_serial(out, d.mid, hi, depth + 1);
    out[me].left = left;
    out[me].right = right;
    return me;
  }

  /// Converts the build-phase node array (free-form child links) into
  /// the query-time layout: a flat array of 12-byte hot records whose
  /// sibling children occupy adjacent slots, plus the cold leaf array
  /// (LeafInfo.packed_begin temporarily holds the idx_ range start
  /// until pack_leaves assigns packed slots). Pre-order DFS, left
  /// subtree first — deterministic for a given build.
  void linearize(KdTree& tree) {
    auto& out = tree.own_;
    out.nodes.clear();
    out.leaves.clear();
    out.leaf_nodes.clear();
    out.nodes.reserve(nodes_.size());
    if (nodes_.empty()) return;
    struct Item {
      std::uint32_t old_node;
      std::uint32_t new_node;
    };
    std::vector<Item> stack;
    out.nodes.emplace_back();
    stack.push_back({0, 0});
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      const BuildNode& b = nodes_[item.old_node];
      KdTree::HotNode hot;
      hot.split = b.split;
      hot.dim = b.dim;
      if (b.dim == KdTree::kLeafMarker) {
        hot.child = static_cast<std::uint32_t>(out.leaves.size());
        out.leaves.push_back({b.idx_lo, b.count});
        out.leaf_nodes.push_back(item.new_node);
      } else {
        hot.child = static_cast<std::uint32_t>(out.nodes.size());
        out.nodes.emplace_back();
        out.nodes.emplace_back();
        stack.push_back({b.right, hot.child + 1});
        stack.push_back({b.left, hot.child});
      }
      out.nodes[item.new_node] = hot;
    }
  }

  /// Phase 3: copies every leaf's points into padded bucket-contiguous
  /// SoA storage (paper step iv).
  void pack_leaves(KdTree& tree) {
    const std::size_t dims = points_.dims();
    auto& out = tree.own_;
    struct LeafRef {
      std::uint64_t idx_lo;
      std::uint32_t count;
      std::uint64_t slot_begin;
    };
    std::vector<LeafRef> leaves;
    leaves.reserve(out.leaves.size());
    std::uint64_t slots = 0;
    for (KdTree::LeafInfo& leaf : out.leaves) {
      leaves.push_back({leaf.packed_begin, leaf.count, slots});
      leaf.packed_begin = slots;
      slots += simd::padded_count(leaf.count);
    }
    out.packed.assign(slots * dims, simd::kPadSentinel);
    out.packed_ids.assign(slots, ~std::uint64_t{0});
    out.packed_local_idx.assign(slots, ~std::uint64_t{0});

    const auto ids = points_.ids();
    parallel::parallel_for_dynamic(
        pool_, 0, leaves.size(), 8,
        [&](int, std::uint64_t a, std::uint64_t b) {
          for (std::uint64_t l = a; l < b; ++l) {
            const LeafRef& ref = leaves[l];
            const std::uint64_t stride = simd::padded_count(ref.count);
            float* block = out.packed.data() + ref.slot_begin * dims;
            for (std::size_t d = 0; d < dims; ++d) {
              const auto coords = points_.coordinate(d);
              float* row = block + d * stride;
              for (std::uint32_t i = 0; i < ref.count; ++i) {
                row[i] = coords[idx_[ref.idx_lo + i]];
              }
            }
            for (std::uint32_t i = 0; i < ref.count; ++i) {
              out.packed_ids[ref.slot_begin + i] = ids[idx_[ref.idx_lo + i]];
              out.packed_local_idx[ref.slot_begin + i] = idx_[ref.idx_lo + i];
            }
          }
        });
  }

  void compute_stats(KdTree& tree) const {
    TreeStats stats;
    stats.nodes = tree.nodes_.size();
    struct Item {
      std::uint32_t node;
      std::uint32_t depth;
    };
    std::vector<Item> stack;
    if (!tree.nodes_.empty()) stack.push_back({0, 1});
    std::uint64_t fill_total = 0;
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      stats.max_depth = std::max(stats.max_depth, item.depth);
      const KdTree::HotNode& n = tree.nodes_[item.node];
      if (n.dim == KdTree::kLeafMarker) {
        stats.leaves += 1;
        stats.points += tree.leaves_[n.child].count;
        fill_total += tree.leaves_[n.child].count;
      } else {
        stack.push_back({n.child, item.depth + 1});
        stack.push_back({n.child + 1, item.depth + 1});
      }
    }
    stats.mean_leaf_fill =
        stats.leaves == 0
            ? 0.0
            : static_cast<double>(fill_total) /
                  (static_cast<double>(stats.leaves) * tree.config_.bucket_size);
    tree.stats_ = stats;
  }

  const data::PointStorage& points_;
  BuildConfig config_;
  parallel::ThreadPool& pool_;
  std::uint32_t depth_limit_ = 64;
  std::vector<std::uint64_t> idx_;
  std::vector<std::uint64_t> scratch_;
  std::vector<BuildNode> nodes_;
};

KdTree KdTree::build(const data::PointStorage& points,
                     const BuildConfig& config, parallel::ThreadPool& pool,
                     BuildBreakdown* breakdown) {
  KdTreeBuilder builder(points, config, pool);
  return builder.build(breakdown);
}

KdTree KdTree::build(const data::PointSet& points, const BuildConfig& config,
                     parallel::ThreadPool& pool, BuildBreakdown* breakdown) {
  const data::PointSetView view(points);
  return build(static_cast<const data::PointStorage&>(view), config, pool,
               breakdown);
}

void KdTree::export_points(data::PointSet& out) const {
  PANDA_CHECK_MSG(out.dims() == dims_,
                  "export_points needs a PointSet of the tree's "
                  "dimensionality (got "
                      << out.dims() << ", tree has " << dims_ << ")");
  out.reserve(out.size() + size());
  std::vector<float> point(dims_);
  for (const LeafInfo& leaf : leaves_) {
    const std::uint64_t stride = simd::padded_count(leaf.count);
    const float* block = packed_.data() + leaf.packed_begin * dims_;
    for (std::uint32_t i = 0; i < leaf.count; ++i) {
      for (std::size_t d = 0; d < dims_; ++d) {
        point[d] = block[d * stride + i];
      }
      out.push_point(point, packed_ids_[leaf.packed_begin + i]);
    }
  }
}

void KdTree::export_ids(std::vector<std::uint64_t>& out) const {
  out.reserve(out.size() + std::min(size(), packed_ids_.size()));
  for (const LeafInfo& leaf : leaves_) {
    const std::uint64_t* ids = packed_ids_.data() + leaf.packed_begin;
    out.insert(out.end(), ids, ids + leaf.count);
  }
}

}  // namespace panda::core
