// Local KNN querying (paper Algorithm 1 / Section III-C).
//
// The exact traversal is an explicit-stack iterative DFS over the hot
// node array (DESIGN.md §9): the near-child chain is walked inline,
// admitted far children are pushed as FarEntry records (with a
// prefetch of their hot node) and re-checked against the tightened
// bound when popped — the pop-time check is exactly the recursion's
// post-near-subtree check, so visit order, pruning decisions, stats
// and results are identical to the classic recursive formulation. The
// Arya–Mount offsets array is maintained with an undo log: each far
// entry records the log level at push time; popping unwinds the log to
// that level before applying its own plane replacement.
//
// All scratch (heap, offsets, stacks, SIMD distance buffer, AoS query
// copy) lives in the caller's QueryWorkspace; the std::vector shims
// route through a per-thread workspace so legacy callers keep the old
// signatures without per-call scratch allocations.
#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/error.hpp"
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

/// Removes the radius sentinels a bounded query seeded its heap with.
/// Real candidates are strictly below (radius2, bound_id) in the
/// (dist², id) order, so sentinels — all exactly equal to it — sort to
/// the back of the row.
std::size_t strip_radius_sentinels(const Neighbor* row, std::size_t count,
                                   float radius2, std::uint64_t bound_id) {
  while (count > 0 && row[count - 1].dist2 == radius2 &&
         row[count - 1].id == bound_id) {
    --count;
  }
  return count;
}

/// Dynamic-scheduling grain: caps at `max_grain` (the classic 64/256)
/// but splits small batches across the pool so a 64-request serving
/// batch does not serialize onto one thread.
std::uint64_t batch_grain(std::uint64_t n, int threads,
                          std::uint64_t max_grain) {
  const std::uint64_t target =
      n / (static_cast<std::uint64_t>(threads) * 4 + 1);
  return std::clamp<std::uint64_t>(target, 1, max_grain);
}

/// Leaf-scan scratch slots a batch warms per thread: the padded bucket
/// capacity (no built leaf holds more), bounded by the slot count so a
/// loaded header's config cannot size it past the index itself.
std::size_t max_leaf_stride(const BuildConfig& config, std::size_t slots) {
  return simd::padded_count(
      std::min<std::size_t>(config.bucket_size, slots));
}

/// Batches at or below this size run inline on the caller thread: a
/// pool fan-out (wake + join of every worker) costs more than the
/// queries themselves at serving-frontend micro-batch sizes, and the
/// chunk scheduling is identical either way (the caller is pool
/// thread 0).
constexpr std::uint64_t kInlineBatchThreshold = 64;

/// Radius queries use a lower inline cutoff: a single fixed-radius
/// scan visits many buckets and returns unbounded rows, so a
/// micro-batch of them is heavy enough to be worth the fan-out.
constexpr std::uint64_t kInlineRadiusThreshold = 16;

/// Dispatches the chunk-scheduling body either across the pool or —
/// for batches at or below `inline_threshold` and for size-1 pools —
/// inline on the caller. A busy pool (another caller mid-fan-out, e.g.
/// a different serving shard's batch) also runs inline: the body
/// self-schedules chunks, so one invocation covers the whole range,
/// and scanning on this core beats sleeping behind someone else's
/// kernel (DESIGN.md §8).
template <typename Body>
void dispatch_batch(parallel::ThreadPool& pool, std::uint64_t n,
                    const Body& body,
                    std::uint64_t inline_threshold = kInlineBatchThreshold) {
  if (n <= inline_threshold || pool.size() == 1) {
    body(0);
    return;
  }
  if (!pool.try_run(body)) body(0);
}

}  // namespace

void KdTree::scan_leaf(const LeafInfo& leaf, const float* query, KnnHeap& heap,
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
  // Lanes past leaf.count never reach the heap.
  simd::squared_distances_inline(query, block, stride,
                                 simd::live_lanes(leaf.count), dims_,
                                 ws.dist.data());
  stats.leaves_visited += 1;
  stats.points_scanned += leaf.count;
  const float bound = heap.bound();
  const float* d2s = ws.dist.data();
  if (bound == std::numeric_limits<float>::infinity()) {
    // Unbounded heap (first bucket of an unseeded query): every lane
    // passes, so the mask would be pure overhead.
    for (std::uint64_t i = 0; i < leaf.count; ++i) {
      heap.offer(d2s[i], ids[i]);
    }
    return;
  }
  // Bitmask selection: buckets the traversal opens border the query
  // ball, so a per-lane admission branch mispredicts constantly; the
  // bound test runs as a SIMD compare instead and only set lanes are
  // offered, in lane order. The bound is read once — offers re-validate
  // against the tightening bound, so the admitted set is unchanged.
  // Non-strict: a candidate exactly at the bound can still win its tie
  // by id — offer() applies the full (dist², id) comparison.
  for (std::uint64_t base = 0; base < leaf.count; base += simd::kMaskWord) {
    const std::size_t n =
        std::min<std::uint64_t>(simd::kMaskWord, leaf.count - base);
    for (std::uint64_t mask = simd::lanes_at_most(d2s + base, n, bound);
         mask != 0; mask &= mask - 1) {
      const std::uint64_t i = base + static_cast<std::uint64_t>(
                                         std::countr_zero(mask));
      heap.offer(d2s[i], ids[i]);
    }
  }
}

void KdTree::search_exact(const float* query, KnnHeap& heap,
                          QueryWorkspace& ws, QueryStats& stats,
                          std::uint32_t skip_node) const {
  float* offsets = ws.offsets.data();  // zeroed by the caller
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
  // and the slacked pruning bound would otherwise be re-read from (and
  // written through) memory at every node. The bound only moves when a
  // leaf scan admits a candidate.
  std::uint64_t nodes_visited = 0;
  float pruning_bound = heap.bound() * kBoundSlack;
  for (;;) {
    // Near-child descent chain. Batched queries prime the heap with
    // their home leaf up front; rescanning it here would offer every
    // bucket point twice.
    while (cur != skip_node) {
      const HotNode node = nodes[cur];
      nodes_visited += 1;
      if (node.dim == kLeafMarker) {
        scan_leaf(leaves_[node.child], query, heap, ws, stats);
        pruning_bound = heap.bound() * kBoundSlack;
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
      // bound tightens monotonically).
      const float old_offset = offsets[node.dim];
      const float far_dist2 =
          region_dist2 - old_offset * old_offset + diff * diff;
      if (far_dist2 <= pruning_bound) {
        __builtin_prefetch(nodes + far);
        *sp++ = {far, far_dist2, node.dim, diff,
                 static_cast<std::uint32_t>(up - undo_base)};
      }
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
      if (e.dist2 <= pruning_bound) {
        *up++ = {e.dim, offsets[e.dim]};
        offsets[e.dim] = e.offset;
        cur = e.node;
        region_dist2 = e.dist2;
        break;
      }
    }
  }
}

std::uint32_t KdTree::home_leaf(const float* query) const {
  if (nodes_.empty()) return kNoNode;
  std::uint32_t v = 0;
  while (!is_leaf(nodes_[v])) {
    const HotNode& n = nodes_[v];
    v = n.child + (query[n.dim] < n.split ? 0u : 1u);
  }
  return v;
}

void KdTree::search_paper(const float* query, KnnHeap& heap,
                          QueryWorkspace& ws, QueryStats& stats) const {
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
      scan_leaf(leaves_[node.child], query, heap, ws, stats);
      continue;
    }
    // Line 17 pruning, tie-tolerant (see kBoundSlack).
    if (e.dist2 > heap.bound() * kBoundSlack) continue;
    const float diff = query[node.dim] - node.split;
    const std::uint32_t go_far = diff < 0.0f ? 1u : 0u;
    const std::uint32_t near = node.child + (1u - go_far);
    const std::uint32_t far = node.child + go_far;
    const float far_dist2 = e.dist2 + diff * diff;  // lines 18-19
    if (far_dist2 <= heap.bound() * kBoundSlack) {
      stack.push_back({far, far_dist2, 0, 0.0f, 0});  // line 23 (C2 first)
    }
    stack.push_back({near, e.dist2, 0, 0.0f, 0});  // line 24 (C1 popped first)
  }
}

std::size_t KdTree::query_sq_into(std::span<const float> query, std::size_t k,
                                  float radius2, QueryWorkspace& ws,
                                  std::span<Neighbor> out,
                                  TraversalPolicy policy, QueryStats* stats,
                                  std::uint64_t radius_bound_id) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  PANDA_CHECK_MSG(out.size() >= k, "result span must hold k slots");
  if (nodes_.empty()) return 0;
  ws.prepare(dims_);
  QueryStats local_stats;
  KnnHeap& heap = ws.heap;
  heap.reset(k);
  // The search radius r of Algorithm 1 seeds the heap bound: filling
  // the heap with sentinels at (r², bound_id) rejects anything not
  // strictly better under the (dist², id) order, without affecting
  // results (sentinels are stripped afterwards).
  const bool bounded = radius2 < kInf;
  if (bounded) {
    for (std::size_t i = 0; i < k; ++i) heap.offer(radius2, radius_bound_id);
  }
  if (policy == TraversalPolicy::Exact) {
    std::fill(ws.offsets.begin(),
              ws.offsets.begin() + static_cast<std::ptrdiff_t>(dims_), 0.0f);
    search_exact(query.data(), heap, ws, local_stats);
  } else {
    search_paper(query.data(), heap, ws, local_stats);
  }
  if (stats != nullptr) *stats += local_stats;
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

void KdTree::batch_query_one(std::uint64_t i, std::size_t k, float radius2,
                             std::uint64_t bound_id, std::uint32_t home,
                             QueryWorkspace& ws, NeighborTable& results,
                             QueryStats& stats) const {
  KnnHeap& heap = ws.heap;
  heap.reset(k);
  const bool seeded = radius2 < kInf;
  if (seeded) {
    for (std::size_t s = 0; s < k; ++s) heap.offer(radius2, bound_id);
  }
  const float* q = ws.query.data();
  // Prime with the home bucket, then run the root traversal with that
  // already-tight bound, skipping the primed leaf.
  scan_leaf(leaves_[nodes_[home].child], q, heap, ws, stats);
  std::fill(ws.offsets.begin(),
            ws.offsets.begin() + static_cast<std::ptrdiff_t>(dims_), 0.0f);
  search_exact(q, heap, ws, stats, home);
  Neighbor* row = results.slot(i).data();
  std::size_t count = heap.extract_sorted_into(row);
  if (seeded) {
    count = strip_radius_sentinels(row, count, radius2, bound_id);
  }
  results.set_count(i, count);
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
  ws.prepare(pool.size(), dims_, k,
             max_leaf_stride(config_, packed_ids_.size()));
  for (auto& t : ws.per_thread) t.stats = QueryStats{};

  // Shared context behind a single pointer: the pool lambdas capture
  // only `&ctx`, which fits std::function's small-object storage — the
  // whole dispatch chain stays allocation-free.
  struct Ctx {
    const KdTree* tree;
    const data::PointSet* queries;
    NeighborTable* results;
    BatchWorkspace* ws;
    const float* radius2s;
    const std::uint64_t* bound_ids;
    std::size_t k;
    std::uint64_t n;
    std::uint64_t grain;
    TraversalPolicy policy;
    std::atomic<std::uint64_t> next{0};
  } ctx{this,
        &queries,
        &results,
        &ws,
        bounded ? radius2s.data() : nullptr,
        bounded ? radius_bound_ids.data() : nullptr,
        k,
        n,
        batch_grain(n, pool.size(), 64),
        policy,
        {}};

  if (policy != TraversalPolicy::Exact) {
    // PaperFormula keeps no incremental offsets to prime; it exists
    // for the recall ablation only, so take the per-query path.
    dispatch_batch(pool, n, [c = &ctx](int tid) {
      QueryWorkspace& w = c->ws->per_thread[static_cast<std::size_t>(tid)];
      for (;;) {
        // order: relaxed — work-stealing chunk counter; claims need
        // atomicity only, the batch completion barrier orders results.
        const std::uint64_t lo =
            c->next.fetch_add(c->grain, std::memory_order_relaxed);
        if (lo >= c->n) break;
        const std::uint64_t hi = std::min(lo + c->grain, c->n);
        for (std::uint64_t i = lo; i < hi; ++i) {
          c->queries->copy_point(i, w.query.data());
          const float r2 = c->radius2s != nullptr ? c->radius2s[i] : kInf;
          const std::uint64_t bid =
              c->bound_ids != nullptr ? c->bound_ids[i] : 0;
          const std::size_t count = c->tree->query_sq_into(
              std::span<const float>(w.query.data(), c->tree->dims_), c->k,
              r2, w, c->results->slot(i), c->policy, &w.stats, bid);
          c->results->set_count(i, count);
        }
      }
    });
    if (stats != nullptr) {
      for (const auto& t : ws.per_thread) *stats += t.stats;
    }
    return;
  }

  // Phase 1: the home leaf of every query (pure descent, no heap
  // work).
  if (ws.home.size() < n) ws.home.resize(n);
  ctx.grain = batch_grain(n, pool.size(), 256);
  dispatch_batch(pool, n, [c = &ctx](int tid) {
    QueryWorkspace& w = c->ws->per_thread[static_cast<std::size_t>(tid)];
    for (;;) {
      // order: relaxed — work-stealing chunk counter; claims need
      // atomicity only, the batch completion barrier orders results.
      const std::uint64_t lo =
          c->next.fetch_add(c->grain, std::memory_order_relaxed);
      if (lo >= c->n) break;
      const std::uint64_t hi = std::min(lo + c->grain, c->n);
      for (std::uint64_t i = lo; i < hi; ++i) {
        c->queries->copy_point(i, w.query.data());
        c->ws->home[i] = c->tree->home_leaf(w.query.data());
      }
    }
  });

  // Phase 2: bucket-contiguous order — co-located queries run
  // back-to-back so the shared home bucket stays hot (ties broken by
  // query index to keep the schedule deterministic).
  if (ws.order.size() < n) ws.order.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) ws.order[i] = i;
  std::sort(ws.order.begin(), ws.order.begin() + static_cast<std::ptrdiff_t>(n),
            [home = ws.home.data()](std::uint64_t a, std::uint64_t b) {
              return home[a] != home[b] ? home[a] < home[b] : a < b;
            });

  // Phase 3: per query, prime the heap with the home bucket, then run
  // the root traversal with that bound, skipping the primed leaf.
  ctx.grain = batch_grain(n, pool.size(), 64);
  // order: relaxed — reset between phases; the dispatch handoff below
  // publishes it to the workers.
  ctx.next.store(0, std::memory_order_relaxed);
  dispatch_batch(pool, n, [c = &ctx](int tid) {
    QueryWorkspace& w = c->ws->per_thread[static_cast<std::size_t>(tid)];
    w.prepare(c->tree->dims_);
    for (;;) {
      // order: relaxed — work-stealing chunk counter; claims need
      // atomicity only, the batch completion barrier orders results.
      const std::uint64_t lo =
          c->next.fetch_add(c->grain, std::memory_order_relaxed);
      if (lo >= c->n) break;
      const std::uint64_t hi = std::min(lo + c->grain, c->n);
      for (std::uint64_t pos = lo; pos < hi; ++pos) {
        const std::uint64_t i = c->ws->order[pos];
        if (pos + 1 < c->n) {
          c->queries->prefetch_point(c->ws->order[pos + 1]);
        }
        c->queries->copy_point(i, w.query.data());
        const float r2 = c->radius2s != nullptr ? c->radius2s[i] : kInf;
        const std::uint64_t bid =
            c->bound_ids != nullptr ? c->bound_ids[i] : 0;
        c->tree->batch_query_one(i, c->k, r2, bid, c->ws->home[i], w,
                                 *c->results, w.stats);
      }
    }
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
  ws.prepare(pool.size(), dims_, k,
             max_leaf_stride(config_, packed_ids_.size()));
  for (auto& t : ws.per_thread) t.stats = QueryStats{};

  // The packed leaves are already the bucket-contiguous schedule: no
  // descent phase, no ordering sort — iterate buckets and query each
  // resident point against its own (L1-hot) home bucket first.
  struct Ctx {
    const KdTree* tree;
    NeighborTable* results;
    BatchWorkspace* ws;
    std::size_t k;
    std::uint64_t n;  // leaves
    std::uint64_t grain;
    std::atomic<std::uint64_t> next{0};
  } ctx{this,
        &results,
        &ws,
        k,
        leaves_.size(),
        batch_grain(leaves_.size(), pool.size(), 8),
        {}};

  dispatch_batch(pool, ctx.n, [c = &ctx](int tid) {
    QueryWorkspace& w = c->ws->per_thread[static_cast<std::size_t>(tid)];
    const KdTree* t = c->tree;
    const std::size_t dims = t->dims_;
    for (;;) {
      // order: relaxed — work-stealing chunk counter; claims need
      // atomicity only, the batch completion barrier orders results.
      const std::uint64_t lo =
          c->next.fetch_add(c->grain, std::memory_order_relaxed);
      if (lo >= c->n) break;
      const std::uint64_t hi = std::min(lo + c->grain, c->n);
      for (std::uint64_t l = lo; l < hi; ++l) {
        const LeafInfo leaf = t->leaves_[l];
        const std::uint32_t home = t->leaf_nodes_[l];
        const std::uint64_t stride = simd::padded_count(leaf.count);
        const float* block = t->packed_.data() + leaf.packed_begin * dims;
        for (std::uint32_t j = 0; j < leaf.count; ++j) {
          for (std::size_t d = 0; d < dims; ++d) {
            w.query[d] = block[d * stride + j];
          }
          const std::uint64_t i =
              t->packed_local_idx_[leaf.packed_begin + j];
          t->batch_query_one(i, c->k, kInf, 0, home, w, *c->results,
                             w.stats);
        }
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

void KdTree::search_budgeted(std::uint32_t node_index, const float* query,
                             KnnHeap& heap, float region_dist2,
                             float* offsets, QueryWorkspace& ws,
                             std::uint64_t& leaf_budget,
                             QueryStats& stats) const {
  if (leaf_budget == 0) return;
  const HotNode node = nodes_[node_index];
  stats.nodes_visited += 1;
  if (is_leaf(node)) {
    scan_leaf(leaves_[node.child], query, heap, ws, stats);
    --leaf_budget;
    return;
  }
  const std::size_t dim = node.dim;
  const float diff = query[dim] - node.split;
  const std::uint32_t go_far = diff < 0.0f ? 1u : 0u;
  const std::uint32_t near = node.child + (1u - go_far);
  const std::uint32_t far = node.child + go_far;
  search_budgeted(near, query, heap, region_dist2, offsets, ws, leaf_budget,
                  stats);
  if (leaf_budget == 0) return;
  const float old_offset = offsets[dim];
  const float far_dist2 =
      region_dist2 - old_offset * old_offset + diff * diff;
  if (far_dist2 <= heap.bound() * kBoundSlack) {
    offsets[dim] = diff;
    search_budgeted(far, query, heap, far_dist2, offsets, ws, leaf_budget,
                    stats);
    offsets[dim] = old_offset;
  }
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
    std::fill(ws.offsets.begin(),
              ws.offsets.begin() + static_cast<std::ptrdiff_t>(dims_), 0.0f);
    std::uint64_t budget = max_leaf_visits;
    search_budgeted(0, query.data(), heap, 0.0f, ws.offsets.data(), ws,
                    budget, local_stats);
  }
  if (stats != nullptr) *stats += local_stats;
  return heap.take_sorted();
}

void KdTree::search_radius(std::uint32_t node_index, const float* query,
                           float radius2, float region_dist2, float* offsets,
                           AlignedVector<float>& dist,
                           std::vector<Neighbor>& out,
                           QueryStats& stats) const {
  const HotNode node = nodes_[node_index];
  stats.nodes_visited += 1;
  if (is_leaf(node)) {
    const LeafInfo leaf = leaves_[node.child];
    const std::uint64_t stride = simd::padded_count(leaf.count);
    if (stride == 0) return;
    if (dist.size() < stride) dist.resize(stride);
    const float* block = packed_.data() + leaf.packed_begin * dims_;
    simd::squared_distances_inline(query, block, stride,
                                   simd::live_lanes(leaf.count), dims_,
                                   dist.data());
    stats.leaves_visited += 1;
    stats.points_scanned += leaf.count;
    for (std::uint64_t i = 0; i < leaf.count; ++i) {
      const float d2 = dist[i];
      if (d2 < radius2) {
        out.push_back({d2, packed_ids_[leaf.packed_begin + i]});
      }
    }
    return;
  }
  const std::size_t dim = node.dim;
  const float diff = query[dim] - node.split;
  const std::uint32_t go_far = diff < 0.0f ? 1u : 0u;
  const std::uint32_t near = node.child + (1u - go_far);
  const std::uint32_t far = node.child + go_far;
  search_radius(near, query, radius2, region_dist2, offsets, dist, out,
                stats);
  const float old_offset = offsets[dim];
  const float far_dist2 =
      region_dist2 - old_offset * old_offset + diff * diff;
  // Slack for the same reason as in search_exact: the leaf scan's
  // strict d2 < radius2 filter decides membership, the bound only
  // routes.
  if (far_dist2 < radius2 * kBoundSlack) {
    offsets[dim] = diff;
    search_radius(far, query, radius2, far_dist2, offsets, dist, out, stats);
    offsets[dim] = old_offset;
  }
}

void KdTree::query_radius_into(std::span<const float> query, float radius,
                               QueryWorkspace& ws, std::vector<Neighbor>& out,
                               QueryStats* stats) const {
  PANDA_CHECK_MSG(query.size() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(radius >= 0.0f, "radius must be non-negative");
  out.clear();
  if (nodes_.empty()) return;
  ws.prepare(dims_);
  QueryStats local_stats;
  std::fill(ws.offsets.begin(),
            ws.offsets.begin() + static_cast<std::ptrdiff_t>(dims_), 0.0f);
  search_radius(0, query.data(), radius * radius, 0.0f, ws.offsets.data(),
                ws.dist, out, local_stats);
  // Full (dist², id) order: tie order must not depend on traversal
  // order, or distributed truncation becomes rank-count-dependent.
  std::sort(out.begin(), out.end());
  if (stats != nullptr) *stats += local_stats;
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

  ws.prepare(pool.size(), dims_, 1,
             max_leaf_stride(config_, packed_ids_.size()));
  for (auto& t : ws.per_thread) {
    t.stats = QueryStats{};
    t.staging.clear();
  }
  if (ws.row_refs.size() < n) ws.row_refs.resize(n);

  struct Ctx {
    const KdTree* tree;
    const data::PointSet* queries;
    const float* radii;
    BatchWorkspace* ws;
    std::uint64_t n;
    std::uint64_t grain;
    std::atomic<std::uint64_t> next{0};
  } ctx{this,    &queries, radii.data(), &ws,
        n,       batch_grain(n, pool.size(), 64),
        {}};

  // Each thread stages its rows contiguously in its own buffer and
  // records where each query's row landed; the stitch below copies
  // them into the flat table in query order.
  dispatch_batch(
      pool, n,
      [c = &ctx](int tid) {
    QueryWorkspace& w = c->ws->per_thread[static_cast<std::size_t>(tid)];
    float* offsets = w.offsets.data();
    for (;;) {
      // order: relaxed — work-stealing chunk counter; claims need
      // atomicity only, the batch completion barrier orders results.
      const std::uint64_t lo =
          c->next.fetch_add(c->grain, std::memory_order_relaxed);
      if (lo >= c->n) break;
      const std::uint64_t hi = std::min(lo + c->grain, c->n);
      for (std::uint64_t i = lo; i < hi; ++i) {
        c->queries->copy_point(i, w.query.data());
        const std::uint64_t begin = w.staging.size();
        const float r = c->radii[i];
        std::fill(offsets,
                  offsets + static_cast<std::ptrdiff_t>(c->tree->dims_),
                  0.0f);
        c->tree->search_radius(0, w.query.data(), r * r, 0.0f, offsets,
                               w.dist, w.staging, w.stats);
        std::sort(w.staging.begin() + static_cast<std::ptrdiff_t>(begin),
                  w.staging.end());
        c->ws->row_refs[i] = {
            begin, static_cast<std::uint32_t>(w.staging.size() - begin),
            static_cast<std::uint32_t>(tid)};
      }
    }
  },
      kInlineRadiusThreshold);

  for (std::uint64_t i = 0; i < n; ++i) {
    const QueryWorkspace::RowRef& ref = ws.row_refs[i];
    const auto& staging = ws.per_thread[ref.thread].staging;
    results.append_row(
        i, std::span<const Neighbor>(staging.data() + ref.begin, ref.count));
  }
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

}  // namespace panda::core
