// Local KNN querying (paper Algorithm 1 / Section III-C).
//
// One descent answers every query: search_exact, an explicit-stack
// iterative DFS over the hot node array (DESIGN.md §9). The near-child
// chain is walked inline, admitted far children are pushed as FarEntry
// records (an unconditional store and a conditional stack increment)
// and re-checked against the tightened bound when popped — the
// pop-time check is exactly the recursion's post-near-subtree check,
// so visit order, pruning decisions, stats and results are identical
// to the classic recursive formulation. The Arya–Mount offsets array
// is maintained with an undo log: each far entry records the log level
// at push time; popping unwinds the log to that level before applying
// its own plane replacement.
//
// The descent is templated on a sink that decides what a leaf keeps,
// which bound prunes and when to stop: a KNN heap (with a sorted
// dead-id list the forest passes), the same heap with a leaf budget
// (query_approx), or radius rows. search_paper, the printed
// Algorithm 1 kept for the ablation, takes the same sinks.
//
// A leaf scan offers only the lanes that pass the sink's bound; the
// first bucket of a KNN query, scanned under an unbounded heap, offers
// its k nearest lanes first (scan_leaf, DESIGN.md §9).
//
// All scratch (heap, offsets, stacks, SIMD distance buffer, AoS query
// copy) lives in the caller's QueryWorkspace; the std::vector shims
// route through a per-thread workspace so legacy callers keep the old
// signatures without per-call scratch allocations.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/batch_order.hpp"
#include "core/kdtree.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/distance.hpp"

namespace panda::core {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Workspace backing the single-query compatibility shims (and
/// query_approx): one per thread, so the shims stay safe for
/// concurrent callers and allocation-free once warm. Retention is
/// bounded — the buffers scale with (dims, k, bucket, depth), not with
/// batch size (the batch shims use per-call state for that reason).
QueryWorkspace& shim_workspace() {
  thread_local QueryWorkspace ws;
  return ws;
}

// The sinks of the one descent (search_exact, search_paper, scan_leaf):
//   admit_bound() — the leaf scan offers the lanes with d2 <= it
//                   (+inf: every lane, no mask);
//   keeps()       — while admit_bound() is +inf, the most lanes of one
//                   scan the sink can keep (a KNN heap's k), so a scan
//                   with more lanes offers its keeps() nearest first
//                   when keeps() is at most simd::kUnrolledSelect;
//   prune_bound() — a region whose lower bound is <= it is visited;
//   offer(d2, id) — one lane that passed admit_bound();
//   leaf_done()   — asked after every leaf the descent opens; true
//                   stops the descent.

/// k nearest into a caller's heap, skipping the ids of a sorted dead
/// list. The list is searched only for candidates the heap would keep:
/// on duplicate-heavy data every lane tied at the bound passes the
/// mask, and a binary search per such lane would dominate the scan.
/// Dead ids never enter the heap, so they never tighten its bound.
struct KnnSink {
  KnnHeap& heap;
  std::span<const std::uint64_t> dead;

  float admit_bound() const { return heap.bound(); }
  std::size_t keeps() const { return heap.k(); }
  float prune_bound() const { return heap.bound() * kBoundSlack; }
  void offer(float d2, std::uint64_t id) {
    if (!dead.empty() && heap.admits(d2, id) &&
        std::binary_search(dead.begin(), dead.end(), id)) {
      return;
    }
    heap.offer(d2, id);
  }
  static constexpr bool leaf_done() { return false; }
};

/// query_approx: KnnSink with a leaf budget. Every leaf the descent
/// opens spends one unit, empty ones included, and the descent stops
/// right after the leaf that spends the last.
struct BudgetSink : KnnSink {
  std::uint64_t budget;

  bool leaf_done() { return --budget == 0; }
};

/// Fixed radius: appends every lane with d2 < r2 whose id is not dead,
/// unsorted. Both bounds are held one float below their strict limits
/// (std::nextafter toward -inf of r2 and of r2 · kBoundSlack), so the
/// non-strict leaf mask and prune test compute d2 < r2 and lower bound
/// < r2 · kBoundSlack bit for bit.
struct RadiusSink {
  float admit;
  float prune;
  std::vector<Neighbor>& out;
  std::span<const std::uint64_t> dead;

  float admit_bound() const { return admit; }
  static constexpr std::size_t keeps() {
    return std::numeric_limits<std::size_t>::max();
  }
  float prune_bound() const { return prune; }
  void offer(float d2, std::uint64_t id) {
    if (!dead.empty() && std::binary_search(dead.begin(), dead.end(), id)) {
      return;
    }
    out.push_back({d2, id});
  }
  static constexpr bool leaf_done() { return false; }
};

/// Offers, in lane order, the lanes i < count of one leaf scan whose
/// bit is set in lanes(d2s + base, n), a mask over each word of up to
/// simd::kMaskWord lanes. Buckets the traversal opens border the query
/// ball, so a per-lane admission branch mispredicts constantly; the
/// bound test runs as a SIMD compare instead and only set lanes are
/// offered. A bound is read once — a heap offer re-validates against
/// the tightening bound, so the admitted set is unchanged. Non-strict:
/// a candidate exactly at the bound can still win its tie by id —
/// KnnHeap::offer applies the full (dist², id) comparison.
template <typename Sink, typename Lanes>
void offer_lanes(const float* d2s, const std::uint64_t* ids,
                 std::uint64_t count, Lanes lanes, Sink& sink) {
  for (std::uint64_t base = 0; base < count; base += simd::kMaskWord) {
    const std::size_t n =
        std::min<std::uint64_t>(simd::kMaskWord, count - base);
    for (std::uint64_t mask = lanes(d2s + base, n); mask != 0;
         mask &= mask - 1) {
      const std::uint64_t i = base + static_cast<std::uint64_t>(
                                         std::countr_zero(mask));
      sink.offer(d2s[i], ids[i]);
    }
  }
}

/// Dynamic-scheduling grain: caps at `max_grain` (64 queries, or 8
/// leaves for the self-join) but splits small batches across the pool
/// so a 64-request serving batch does not serialize onto one thread.
std::uint64_t batch_grain(std::uint64_t n, int threads,
                          std::uint64_t max_grain) {
  const std::uint64_t target =
      n / (static_cast<std::uint64_t>(threads) * 4 + 1);
  return std::clamp<std::uint64_t>(target, 1, max_grain);
}

}  // namespace

template <typename Sink>
void KdTree::scan_leaf(const LeafInfo& leaf, const float* query, Sink& sink,
                       QueryWorkspace& ws, QueryStats& stats) const {
  const std::uint64_t stride = simd::padded_count(leaf.count);
  if (stride == 0) return;
  if (ws.dist.size() < stride) ws.dist.resize(stride);
  const float* block = packed_.data() + leaf.packed_begin * dims_;
  // Hint the id row in now: the offer loop below reads it on every
  // admission, and the fetch overlaps the distance kernel.
  const std::uint64_t* ids = packed_ids_.data() + leaf.packed_begin;
  for (std::uint64_t b = 0; b < leaf.count; b += 8) {
    __builtin_prefetch(ids + b);
  }
  // Live lanes only: the leaf's points rounded up to one lane group.
  // Lanes past leaf.count never reach the sink.
  simd::squared_distances_inline(query, block, stride,
                                 simd::live_lanes(leaf.count), dims_,
                                 ws.dist.data());
  stats.leaves_visited += 1;
  stats.points_scanned += leaf.count;
  const float* d2s = ws.dist.data();
  // The first bucket of a query is scanned while the sink is unbounded.
  // A heap keeps at most k of its lanes, so with more lanes than that
  // the scan offers only the lanes at most T, the k-th smallest
  // distance, and the rest never reach the heap's data-dependent
  // compare. Only k up to simd::kUnrolledSelect select (the network
  // costs count * k compare-exchanges).
  float bound = sink.admit_bound();
  const std::size_t k = sink.keeps();
  const bool first =
      bound == kInf && k <= simd::kUnrolledSelect && leaf.count > k;
  if (first) bound = simd::kth_smallest(d2s, leaf.count, k);
  if (bound == kInf) {
    // Still unbounded (a larger k, a bucket of at most k lanes, or a
    // k-th lane at +inf): every lane passes, so the mask would be pure
    // overhead, and the heap ends as if every lane had been offered.
    for (std::uint64_t i = 0; i < leaf.count; ++i) {
      sink.offer(d2s[i], ids[i]);
    }
    return;
  }
  offer_lanes(d2s, ids, leaf.count,
              [bound](const float* d2, std::size_t n) {
                return simd::lanes_at_most(d2, n, bound);
              },
              sink);
  if (!first) return;
  // The first pass offered at least k lanes, all at most T, so unless
  // the sink skipped dead ids among them the heap is now full with a
  // bound at most T, whatever it held before, and this returns. A
  // skipped dead id (or a wrong T) leaves the bound above T: then the
  // lanes in (T, bound] for the bound after the first pass are offered
  // too, each lane once, so the heap ends as if every lane had been
  // offered, whatever T was.
  const float after = sink.admit_bound();
  if (!(after > bound)) return;
  offer_lanes(d2s, ids, leaf.count,
              [bound, after](const float* d2, std::size_t n) {
                return simd::lanes_at_most(d2, n, after) &
                       ~simd::lanes_at_most(d2, n, bound);
              },
              sink);
}

template <typename Sink>
void KdTree::search_exact(const float* query, Sink& sink, QueryWorkspace& ws,
                          QueryStats& stats, std::uint32_t skip_node) const {
  float* offsets = ws.offsets.data();
  std::fill_n(offsets, dims_, 0.0f);
  // Raw-pointer stacks over workspace storage: at any moment the
  // stack holds at most one far entry per level of the current
  // root-to-node path (entries of completed subtrees are popped before
  // descending further), so max_depth bounds both stacks and the
  // per-push capacity/size bookkeeping of std::vector is pure
  // overhead in this loop.
  const std::size_t depth_cap = stats_.max_depth + 2;
  if (ws.stack.size() < depth_cap) ws.stack.resize(depth_cap);
  if (ws.undo.size() < depth_cap) ws.undo.resize(depth_cap);
  QueryWorkspace::FarEntry* const stack_base = ws.stack.data();
  QueryWorkspace::FarEntry* sp = stack_base;
  QueryWorkspace::UndoEntry* const undo_base = ws.undo.data();
  QueryWorkspace::UndoEntry* up = undo_base;
  const HotNode* nodes = nodes_.data();
  std::uint32_t cur = 0;
  float region_dist2 = 0.0f;
  // Register-resident copies of the hot loop state: the stats counter
  // and the pruning bound would otherwise be re-read from (and written
  // through) memory at every node. The bound only moves when a leaf
  // scan admits a candidate.
  std::uint64_t nodes_visited = 0;
  float pruning_bound = sink.prune_bound();
  for (;;) {
    // Near-child descent chain. Self-join queries prime the heap with
    // their home leaf up front; rescanning it here would offer every
    // bucket point twice.
    while (cur != skip_node) {
      const HotNode node = nodes[cur];
      nodes_visited += 1;
      if (node.dim == kLeafMarker) {
        scan_leaf(leaves_[node.child], query, sink, ws, stats);
        if (sink.leaf_done()) {
          stats.nodes_visited += nodes_visited;
          return;
        }
        pruning_bound = sink.prune_bound();
        break;
      }
      const float diff = query[node.dim] - node.split;
      const std::uint32_t go_far = diff < 0.0f ? 1u : 0u;
      const std::uint32_t near = node.child + (1u - go_far);
      const std::uint32_t far = node.child + go_far;
      // Arya–Mount incremental bound: replace this dimension's
      // previous plane offset with the new one. The far bound stays a
      // true lower bound on the squared distance to any point in the
      // far region. kBoundSlack keeps boundary regions: an
      // exact-arithmetic tie can round either side of the bound, and a
      // tied candidate with a smaller id must still be found
      // (DESIGN.md §5). This push-time check only skips entries the
      // authoritative pop-time check below would discard anyway (the
      // bound tightens monotonically). Far from every point the squares
      // overflow to +inf and inf - inf is NaN; both checks are written
      // as !(bound > pruning_bound) so a NaN bound visits the region
      // instead of pruning candidates that tie at +inf.
      // The push is branch-free: the entry is always written, and the
      // stack grows over it only when the region is admitted (the slot
      // past the top is inside depth_cap).
      const float old_offset = offsets[node.dim];
      const float far_dist2 =
          region_dist2 - old_offset * old_offset + diff * diff;
      *sp = {far, far_dist2, node.dim, diff,
             static_cast<std::uint32_t>(up - undo_base)};
      sp += static_cast<std::ptrdiff_t>(!(far_dist2 > pruning_bound));
      cur = near;
    }
    // Pop the next admissible far subtree. The bound check here is the
    // recursion's post-near-subtree check: this entry pops exactly
    // when its sibling subtree has completed.
    for (;;) {
      if (sp == stack_base) {
        stats.nodes_visited += nodes_visited;
        return;
      }
      const QueryWorkspace::FarEntry e = *--sp;
      while (up != undo_base + e.undo_size) {
        --up;
        offsets[up->dim] = up->offset;
      }
      if (!(e.dist2 > pruning_bound)) {
        *up++ = {e.dim, offsets[e.dim]};
        offsets[e.dim] = e.offset;
        cur = e.node;
        region_dist2 = e.dist2;
        break;
      }
    }
  }
}

template <typename Sink>
void KdTree::search_paper(const float* query, Sink& sink, QueryWorkspace& ws,
                          QueryStats& stats) const {
  // Iterative traversal with an explicit stack of (node, d) pairs,
  // following Algorithm 1 line by line; d accumulates successive plane
  // offsets without same-dimension replacement.
  auto& stack = ws.stack;
  stack.clear();
  stack.push_back({0, 0.0f, 0, 0.0f, 0});
  while (!stack.empty()) {
    const QueryWorkspace::FarEntry e = stack.back();
    stack.pop_back();
    const HotNode node = nodes_[e.node];
    stats.nodes_visited += 1;
    if (node.dim == kLeafMarker) {
      scan_leaf(leaves_[node.child], query, sink, ws, stats);
      continue;
    }
    // Line 17 pruning, tie-tolerant (see kBoundSlack).
    if (e.dist2 > sink.prune_bound()) continue;
    const float diff = query[node.dim] - node.split;
    const std::uint32_t go_far = diff < 0.0f ? 1u : 0u;
    const std::uint32_t near = node.child + (1u - go_far);
    const std::uint32_t far = node.child + go_far;
    const float far_dist2 = e.dist2 + diff * diff;  // lines 18-19
    if (far_dist2 <= sink.prune_bound()) {
      stack.push_back({far, far_dist2, 0, 0.0f, 0});  // line 23 (C2 first)
    }
    stack.push_back({near, e.dist2, 0, 0.0f, 0});  // line 24 (C1 popped first)
  }
}

void KdTree::offer_knn(std::span<const float> query, KnnHeap& heap,
                       QueryWorkspace& ws,
                       std::span<const std::uint64_t> dead,
                       TraversalPolicy policy, QueryStats* stats) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  if (nodes_.empty()) return;
  ws.prepare(dims_);
  QueryStats local_stats;
  KnnSink sink{heap, dead};
  if (policy == TraversalPolicy::Exact) {
    search_exact(query.data(), sink, ws, local_stats);
  } else {
    search_paper(query.data(), sink, ws, local_stats);
  }
  if (stats != nullptr) *stats += local_stats;
}

std::size_t KdTree::query_sq_into(std::span<const float> query, std::size_t k,
                                  float radius2, QueryWorkspace& ws,
                                  std::span<Neighbor> out,
                                  TraversalPolicy policy, QueryStats* stats,
                                  std::uint64_t radius_bound_id) const {
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  PANDA_CHECK_MSG(out.size() >= k, "result span must hold k slots");
  KnnHeap& heap = ws.heap;
  heap.reset(k);
  // The search radius r of Algorithm 1 seeds the heap bound: filling
  // the heap with sentinels at (r², bound_id) rejects anything not
  // strictly better under the (dist², id) order, without affecting
  // results (sentinels are stripped afterwards).
  const bool bounded = radius2 < kInf;
  if (bounded) seed_radius_sentinels(heap, radius2, radius_bound_id);
  offer_knn(query, heap, ws, {}, policy, stats);
  std::size_t count = heap.extract_sorted_into(out.data());
  if (bounded) {
    count = strip_radius_sentinels(out.data(), count, radius2,
                                   radius_bound_id);
  }
  return count;
}

std::vector<Neighbor> KdTree::query(std::span<const float> query,
                                    std::size_t k, float radius,
                                    TraversalPolicy policy,
                                    QueryStats* stats) const {
  const float r2 = radius < kInf ? radius * radius : kInf;
  return query_sq(query, k, r2, policy, stats);
}

std::vector<Neighbor> KdTree::query_sq(std::span<const float> query,
                                       std::size_t k, float radius2,
                                       TraversalPolicy policy,
                                       QueryStats* stats,
                                       std::uint64_t radius_bound_id) const {
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  std::vector<Neighbor> out(k);
  const std::size_t count = query_sq_into(query, k, radius2, shim_workspace(),
                                          out, policy, stats,
                                          radius_bound_id);
  out.resize(count);
  return out;
}

void KdTree::copy_slot(std::size_t leaf, std::uint32_t j, float* out) const {
  const LeafInfo& info = leaves_[leaf];
  const std::uint64_t stride = simd::padded_count(info.count);
  const float* block = packed_.data() + info.packed_begin * dims_;
  for (std::size_t d = 0; d < dims_; ++d) out[d] = block[d * stride + j];
}

void KdTree::offer_self(std::size_t leaf, std::uint32_t j, KnnHeap& heap,
                        QueryWorkspace& ws,
                        std::span<const std::uint64_t> dead,
                        QueryStats* stats) const {
  ws.prepare(dims_);
  float* q = ws.query.data();
  copy_slot(leaf, j, q);
  // Prime with the home bucket, then run the root traversal with that
  // already-tight bound, skipping the primed leaf.
  QueryStats local_stats;
  KnnSink sink{heap, dead};
  scan_leaf(leaves_[leaf], q, sink, ws, local_stats);
  search_exact(q, sink, ws, local_stats, leaf_nodes_[leaf]);
  if (stats != nullptr) *stats += local_stats;
}

void KdTree::query_sq_batch(const data::PointSet& queries, std::size_t k,
                            parallel::ThreadPool& pool,
                            NeighborTable& results, BatchWorkspace& ws,
                            std::span<const float> radius2s,
                            std::span<const std::uint64_t> radius_bound_ids,
                            TraversalPolicy policy, QueryStats* stats) const {
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  const bool bounded = !radius2s.empty();
  if (bounded) {
    PANDA_CHECK_MSG(radius2s.size() == queries.size() &&
                        radius_bound_ids.size() == queries.size(),
                    "per-query bound spans must match the query count");
  }
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  if (nodes_.empty()) return;

  const std::uint64_t n = queries.size();
  ws.prepare(pool.size(), dims_, k, leaf_stride());
  for (auto& t : ws.per_thread) t.stats = QueryStats{};
  const float* r2s = bounded ? radius2s.data() : nullptr;
  const std::uint64_t* bound_ids = bounded ? radius_bound_ids.data() : nullptr;
  // Large batches run in Morton order, each query into its caller's row
  // (core/batch_order.hpp).
  const std::span<const std::uint64_t> order = order_knn_batch(queries, ws);
  parallel::for_chunks(
      pool, n, batch_grain(n, pool.size(), 64), kInlineKnnBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = ws.per_thread[static_cast<std::size_t>(tid)];
        answer_in_order(
            order, queries, results, lo, hi, w.query.data(),
            [&](std::uint64_t q) {
              const std::size_t count = query_sq_into(
                  std::span<const float>(w.query.data(), dims_), k,
                  r2s != nullptr ? r2s[q] : kInf, w, results.slot(q), policy,
                  &w.stats, bound_ids != nullptr ? bound_ids[q] : 0);
              results.set_count(q, count);
            });
      });
  if (stats != nullptr) {
    for (const auto& t : ws.per_thread) *stats += t.stats;
  }
}

void KdTree::query_self_batch(std::size_t k, parallel::ThreadPool& pool,
                              NeighborTable& results, BatchWorkspace& ws,
                              QueryStats* stats) const {
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  results.reset_topk(stats_.points, k);
  if (nodes_.empty()) return;
  ws.prepare(pool.size(), dims_, k, leaf_stride());
  for (auto& t : ws.per_thread) t.stats = QueryStats{};

  // The packed leaves are the schedule: each bucket's points query in
  // slot order, so consecutive descents share hot nodes and buckets.
  // Their rows are build positions, scattered over the table, so each
  // query prefetches the next one's row.
  const std::uint64_t n_leaves = leaves_.size();
  parallel::for_chunks(
      pool, n_leaves, batch_grain(n_leaves, pool.size(), 8), kInlineKnnBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = ws.per_thread[static_cast<std::size_t>(tid)];
        for (std::uint64_t l = lo; l < hi; ++l) {
          const LeafInfo leaf = leaves_[l];
          const std::uint64_t* rows =
              packed_local_idx_.data() + leaf.packed_begin;
          for (std::uint32_t j = 0; j < leaf.count; ++j) {
            if (j + 1 < leaf.count) {
              results.prefetch_row(rows[j + 1]);
            } else if (l + 1 < hi && leaves_[l + 1].count > 0) {
              results.prefetch_row(
                  packed_local_idx_[leaves_[l + 1].packed_begin]);
            }
            w.heap.reset(k);
            offer_self(l, j, w.heap, w, {}, &w.stats);
            const std::uint64_t row = rows[j];
            results.set_count(
                row, w.heap.extract_sorted_into(results.slot(row).data()));
          }
        }
      });
  if (stats != nullptr) {
    for (const auto& t : ws.per_thread) *stats += t.stats;
  }
}

void KdTree::query_batch(const data::PointSet& queries, std::size_t k,
                         parallel::ThreadPool& pool, NeighborTable& results,
                         BatchWorkspace& ws, float radius,
                         TraversalPolicy policy, QueryStats* stats) const {
  PANDA_CHECK_MSG(queries.empty() || queries.dims() == dims_,
                  "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  if (radius < kInf) {
    const float r2 = radius * radius;
    if (ws.radius2.size() < queries.size()) ws.radius2.resize(queries.size());
    if (ws.bound_id.size() < queries.size()) {
      ws.bound_id.resize(queries.size());
    }
    std::fill(ws.radius2.begin(),
              ws.radius2.begin() + static_cast<std::ptrdiff_t>(queries.size()),
              r2);
    std::fill(ws.bound_id.begin(),
              ws.bound_id.begin() + static_cast<std::ptrdiff_t>(queries.size()),
              std::uint64_t{0});
    query_sq_batch(queries, k, pool, results, ws,
                   std::span<const float>(ws.radius2.data(), queries.size()),
                   std::span<const std::uint64_t>(ws.bound_id.data(),
                                                  queries.size()),
                   policy, stats);
    return;
  }
  query_sq_batch(queries, k, pool, results, ws, {}, {}, policy, stats);
}

std::vector<Neighbor> KdTree::query_approx(std::span<const float> query,
                                           std::size_t k,
                                           std::uint64_t max_leaf_visits,
                                           QueryStats* stats) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  PANDA_CHECK_MSG(max_leaf_visits >= 1, "need at least one leaf visit");
  QueryStats local_stats;
  QueryWorkspace& ws = shim_workspace();
  ws.prepare(dims_);
  KnnHeap& heap = ws.heap;
  heap.reset(k);
  if (!nodes_.empty()) {
    BudgetSink sink{{heap, {}}, max_leaf_visits};
    search_exact(query.data(), sink, ws, local_stats);
  }
  if (stats != nullptr) *stats += local_stats;
  return heap.take_sorted();
}

void KdTree::append_radius(std::span<const float> query, float radius,
                           QueryWorkspace& ws, std::vector<Neighbor>& out,
                           std::span<const std::uint64_t> dead,
                           QueryStats* stats) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(radius >= 0.0f, "radius must be non-negative");
  if (nodes_.empty()) return;
  ws.prepare(dims_);
  QueryStats local_stats;
  const float r2 = radius * radius;
  RadiusSink sink{std::nextafter(r2, -kInf),
                  std::nextafter(r2 * kBoundSlack, -kInf), out, dead};
  search_exact(query.data(), sink, ws, local_stats);
  if (stats != nullptr) *stats += local_stats;
}

void KdTree::query_radius_into(std::span<const float> query, float radius,
                               QueryWorkspace& ws, std::vector<Neighbor>& out,
                               QueryStats* stats) const {
  out.clear();
  append_radius(query, radius, ws, out, {}, stats);
  // Full (dist², id) order: tie order must not depend on traversal
  // order, or distributed truncation becomes rank-count-dependent.
  std::sort(out.begin(), out.end());
}

std::vector<Neighbor> KdTree::query_radius(std::span<const float> query,
                                           float radius,
                                           QueryStats* stats) const {
  std::vector<Neighbor> out;
  query_radius_into(query, radius, shim_workspace(), out, stats);
  return out;
}

void KdTree::query_radius_batch(const data::PointSet& queries,
                                std::span<const float> radii,
                                parallel::ThreadPool& pool,
                                NeighborTable& results, BatchWorkspace& ws,
                                QueryStats* stats) const {
  PANDA_CHECK_MSG(radii.size() == queries.size(),
                  "per-query radius span must match the query count");
  results.reset_rows(queries.size());
  const std::uint64_t n = queries.size();
  if (n == 0) return;
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  for (std::size_t i = 0; i < radii.size(); ++i) {
    PANDA_CHECK_MSG(radii[i] >= 0.0f, "radius must be non-negative");
  }
  if (nodes_.empty()) {
    for (std::uint64_t i = 0; i < n; ++i) results.append_row(i, {});
    return;
  }

  ws.prepare(pool.size(), dims_, 1, leaf_stride());
  for (auto& t : ws.per_thread) {
    t.stats = QueryStats{};
    t.staging.clear();
  }
  if (ws.row_refs.size() < n) ws.row_refs.resize(n);

  // Each thread stages its rows contiguously in its own buffer; the
  // stitch copies them into the flat table in query order.
  parallel::for_chunks(
      pool, n, batch_grain(n, pool.size(), 64), kInlineRadiusBatch,
      [&](int tid, std::uint64_t lo, std::uint64_t hi) {
        QueryWorkspace& w = ws.per_thread[static_cast<std::size_t>(tid)];
        for (std::uint64_t i = lo; i < hi; ++i) {
          queries.copy_point(i, w.query.data());
          const std::uint64_t begin = w.staging.size();
          append_radius(std::span<const float>(w.query.data(), dims_),
                        radii[i], w, w.staging, {}, &w.stats);
          ws.close_row(i, tid, begin);
        }
      });
  ws.stitch_rows(n, results);
  if (stats != nullptr) {
    for (const auto& t : ws.per_thread) *stats += t.stats;
  }
}

std::uint32_t KdTree::path_depth(std::span<const float> query) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  if (nodes_.empty()) return 0;
  std::uint32_t depth = 1;
  std::uint32_t v = 0;
  while (!is_leaf(nodes_[v])) {
    const HotNode& n = nodes_[v];
    v = n.child + (query[n.dim] < n.split ? 0u : 1u);
    ++depth;
  }
  return depth;
}

std::size_t KdTree::leaf_stride() const {
  return simd::padded_count(
      std::min<std::size_t>(config_.bucket_size, packed_ids_.size()));
}

}  // namespace panda::core
