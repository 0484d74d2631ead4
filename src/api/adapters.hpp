// Private adapter factories behind panda::Index::build / open.
//
// Each factory lives in its own translation unit so the facade header
// stays engine-agnostic; nothing outside src/api/ should include this
// header.
#pragma once

#include <memory>

#include "api/index.hpp"

namespace panda::api {

std::unique_ptr<Index> make_local_index(const data::PointSet& points,
                                        const IndexOptions& options);
/// Storage-view build: consumes any resident backend directly and
/// routes to the out-of-core build when options.memory_budget_bytes
/// says the points exceed RAM.
std::unique_ptr<Index> make_local_index(const data::PointStorage& points,
                                        const IndexOptions& options);
/// Wraps an already-built (e.g. loaded or mapped) tree; used by
/// Index::open.
std::unique_ptr<Index> make_local_index(core::KdTree tree,
                                        const IndexOptions& options);
std::unique_ptr<Index> make_dist_index(const data::PointSet& points,
                                       const IndexOptions& options);
std::unique_ptr<Index> make_brute_force_index(const data::PointSet& points,
                                              const IndexOptions& options);
std::unique_ptr<Index> make_simple_tree_index(const data::PointSet& points,
                                              const IndexOptions& options);
std::unique_ptr<Index> make_mutable_index(const data::PointSet& points,
                                          const IndexOptions& options);
/// Seeds the forest's largest level with an already-built (loaded or
/// mapped) tree; used by Index::open under Engine::Mutable.
std::unique_ptr<Index> make_mutable_index(core::KdTree tree,
                                          const IndexOptions& options);
/// Recovers a durable MutableIndex directory
/// (options.mutable_config.durable_dir must be set); used by
/// Index::open on a directory path.
std::unique_ptr<Index> make_mutable_index(std::size_t dims,
                                          const IndexOptions& options);

/// Shared pool resolution: the caller's shared pool if set, else a
/// fresh pool of options.threads (0 = hardware concurrency, min 1).
std::shared_ptr<parallel::ThreadPool> resolve_pool(
    const IndexOptions& options);

/// Strict dist² < radius² prefix of an ascending (dist², id) row —
/// the boundary convention of DESIGN.md §5, which the Dist and baseline
/// adapters reduce their rows with (Local and Mutable bound their heaps
/// instead). An infinite radius keeps the whole row.
inline std::span<const core::Neighbor> radius_prefix(
    std::span<const core::Neighbor> row, float radius) {
  if (radius == std::numeric_limits<float>::infinity()) return row;
  const float r2 = radius * radius;
  std::size_t keep = 0;
  while (keep < row.size() && row[keep].dist2 < r2) ++keep;
  return row.subspan(0, keep);
}

}  // namespace panda::api
