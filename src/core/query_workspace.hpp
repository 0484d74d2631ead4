// Reusable per-thread query state (DESIGN.md §9).
//
// Every mutable buffer a KdTree query needs lives here: the bounded
// candidate heap, the Arya–Mount per-dimension offset array, the
// explicit traversal stack (+ its offset undo log), the SIMD distance
// scratch that used to hide in a thread_local, and an AoS copy buffer
// for SoA query points. A workspace warms up on first use and then
// every subsequent query — any k, any radius — runs with zero
// allocator calls.
//
// Ownership rules:
//   * one workspace per thread — a workspace is NOT thread-safe, and
//     a single workspace must not be used by two concurrent queries;
//   * callers of the single-query entry points (query_sq_into,
//     query_radius_into, and the forest's offer_knn / append_radius)
//     own their workspace and pass it explicitly;
//   * the batch entry points take a BatchWorkspace, which owns one
//     QueryWorkspace per pool thread plus the batch-wide scratch
//     (radius-row stitch map, uniform-bound staging, the KNN batch's
//     Morton schedule).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"

namespace panda::core {

/// Per-query traversal counters (accumulated per thread by the batch
/// entry points).
struct QueryStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t leaves_visited = 0;
  std::uint64_t points_scanned = 0;

  QueryStats& operator+=(const QueryStats& o) {
    nodes_visited += o.nodes_visited;
    leaves_visited += o.leaves_visited;
    points_scanned += o.points_scanned;
    return *this;
  }
};

struct QueryWorkspace {
  /// Deferred far-subtree visit of the iterative exact traversal: the
  /// node to visit, its Arya–Mount lower bound, the (dim, offset)
  /// plane replacement to apply when entering it, and the undo-log
  /// level to unwind to first.
  struct FarEntry {
    std::uint32_t node = 0;
    float dist2 = 0.0f;
    std::uint32_t dim = 0;
    float offset = 0.0f;
    std::uint32_t undo_size = 0;
  };
  /// One offsets[] plane replacement to revert on unwind.
  struct UndoEntry {
    std::uint32_t dim = 0;
    float offset = 0.0f;
  };
  /// Where one query's variable-length row landed in this thread's
  /// staging buffer (radius batch stitching).
  struct RowRef {
    std::uint64_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t thread = 0;
  };

  /// Sizes the dimension-dependent buffers, the heap for `k`
  /// neighbors, and the leaf-scan scratch for blocks of up to
  /// `leaf_stride` slots, and pre-reserves the traversal stack.
  /// Idempotent and allocation-free once warm.
  void prepare(std::size_t dims, std::size_t k = 1,
               std::size_t leaf_stride = 0) {
    if (offsets.size() < dims) offsets.resize(dims);
    if (query.size() < dims) query.resize(dims);
    if (stack.capacity() == 0) stack.reserve(128);
    if (undo.capacity() == 0) undo.reserve(128);
    heap.reserve(k);
    if (dist.size() < leaf_stride) dist.resize(leaf_stride);
  }

  KnnHeap heap{1};
  std::vector<float> offsets;        // Arya–Mount plane offsets (dims)
  std::vector<float> query;          // AoS copy of the current query
  AlignedVector<float> dist;         // SIMD leaf-scan distances
  std::vector<FarEntry> stack;       // explicit traversal stack
  std::vector<UndoEntry> undo;       // offsets[] undo log
  std::vector<Neighbor> staging;     // variable-length row staging
  QueryStats stats;                  // per-thread batch accumulation
};

/// Caller-owned state for the batched entry points: one QueryWorkspace
/// per pool thread plus the batch-wide arrays. Reused across batches —
/// steady-state query_sq_batch / query_radius_batch calls make zero
/// allocator calls. The forest's batches (core::MutableIndex) run on
/// the same per-thread workspaces.
struct BatchWorkspace {
  /// Sizes every per-thread workspace for `threads` pool threads
  /// (QueryWorkspace::prepare arguments). Warming all of them up front,
  /// not just the ones the chunk schedule happens to hand work, keeps
  /// the warm capacity independent of thread scheduling. Idempotent,
  /// allocation-free once warm.
  void prepare(int threads, std::size_t dims, std::size_t k = 1,
               std::size_t leaf_stride = 0) {
    const auto t = static_cast<std::size_t>(threads);
    if (per_thread.size() < t) per_thread.resize(t);
    for (auto& ws : per_thread) ws.prepare(dims, k, leaf_stride);
  }

  /// Radius batches: sorts the row of query i that thread `tid` staged
  /// from `begin` to the end of its staging buffer into (dist², id)
  /// order and records where it landed.
  void close_row(std::uint64_t i, int tid, std::uint64_t begin) {
    std::vector<Neighbor>& staging =
        per_thread[static_cast<std::size_t>(tid)].staging;
    std::sort(staging.begin() + static_cast<std::ptrdiff_t>(begin),
              staging.end());
    row_refs[i] = {begin, static_cast<std::uint32_t>(staging.size() - begin),
                   static_cast<std::uint32_t>(tid)};
  }

  /// Copies the n closed rows into `results` (rows mode) in query
  /// order: the one stitch of every radius batch.
  void stitch_rows(std::uint64_t n, NeighborTable& results) const {
    for (std::uint64_t i = 0; i < n; ++i) {
      const QueryWorkspace::RowRef& ref = row_refs[i];
      const std::vector<Neighbor>& staging = per_thread[ref.thread].staging;
      results.append_row(i, std::span<const Neighbor>(
                                staging.data() + ref.begin, ref.count));
    }
  }

  std::vector<QueryWorkspace> per_thread;
  std::vector<QueryWorkspace::RowRef> row_refs;  // radius batch stitch map
  std::vector<float> radius2;            // uniform-bound staging
  std::vector<std::uint64_t> bound_id;   // uniform-bound staging
  /// The Morton schedule of a KNN batch (core/batch_order.hpp): one
  /// (key << 32 | caller position) entry per query, and its radix-sort
  /// scratch — 16 bytes per query of the largest ordered batch.
  std::vector<std::uint64_t> order;
  std::vector<std::uint64_t> order_scratch;
};

}  // namespace panda::core
