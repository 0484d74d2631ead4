// The order a batch KNN answers its queries in (DESIGN.md §9.2).
//
// Every query of a batch KNN runs its own descent on its own reset
// heap, so the order the queries run in changes no row, count or stat;
// it changes only how much of the tree the next descent finds in
// cache. Callers hand batches over in their own order, which is
// spatially random: consecutive generator ids land in unrelated halos,
// serving clients ask where they like. The self-joins get locality
// from their packed-leaf schedule (DESIGN.md §7); a batch of at least
// kOrderedKnnBatch queries (core/kdtree.hpp) gets it from the Morton
// (Z-order) curve over its own bounding box, so consecutive queries are
// spatial neighbours whose descents share hot nodes and buckets. Each
// query still writes the row at its caller position. Those rows land
// scattered, so the loop prefetches the next query's row and
// coordinates one query ahead, as the self-joins do.
//
// KdTree::query_sq_batch (the Local engine; through the all-KNN
// engine, the routed engine's stage 2 and both distributed KNN
// engines' stage 4) and MutableIndex::knn_batch run on this one
// schedule.
// Smaller batches, serving micro-batches among them, keep the caller's
// order: their queries are too sparse to share a path, and ordering
// them would cost more than it buys.
#pragma once

#include <cstdint>
#include <span>

#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"

namespace panda::core {

/// The caller position in the low half of a schedule entry.
inline constexpr std::uint64_t kOrderPositionMask = 0xffffffffu;

/// The schedule of a KNN batch over `queries`. Below kOrderedKnnBatch
/// queries it is empty: the caller's order. Otherwise it is ws.order,
/// one (key << 32 | caller position) entry per query, ascending by a
/// Morton key of at most 30 bits quantised over the batch's bounding
/// box in its first 30 dims (30 / dims bits per dim, at least 1 and at
/// most 24); equal keys keep the caller's order. A NaN or infinite
/// coordinate, and a dim whose extent is zero or overflows to +Inf,
/// maps to a fixed cell: the order is defined for any input, and no
/// out-of-range float reaches an integer cast. Once ws.order and
/// ws.order_scratch have held a batch of this size, the call allocates
/// nothing.
std::span<const std::uint64_t> order_knn_batch(const data::PointSet& queries,
                                               BatchWorkspace& ws);

/// Runs schedule positions [lo, hi) of a batch: copies each query into
/// `query` (dims floats) and calls answer(q) with its caller position
/// q. On an ordered schedule it first prefetches the next query's row
/// of `results` and its coordinates.
template <typename Answer>
void answer_in_order(std::span<const std::uint64_t> order,
                     const data::PointSet& queries,
                     const NeighborTable& results, std::uint64_t lo,
                     std::uint64_t hi, float* query, const Answer& answer) {
  if (order.empty()) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      queries.copy_point(i, query);
      answer(i);
    }
    return;
  }
  for (std::uint64_t i = lo; i < hi; ++i) {
    if (i + 1 < hi) {
      const std::uint64_t next = order[i + 1] & kOrderPositionMask;
      results.prefetch_row(next);
      queries.prefetch_point(next);
    }
    const std::uint64_t q = order[i] & kOrderPositionMask;
    queries.copy_point(q, query);
    answer(q);
  }
}

}  // namespace panda::core
