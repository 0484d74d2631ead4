// Distributed fixed-radius neighborhood search (the BD-CATS-style
// primitive behind the plasma/cosmology examples).
//
// Fixed-radius search is simpler than KNN: the pruning radius is known
// up front, so the owner stage disappears — the origin itself prunes
// with ranks_in_ball(q, r²), ships the query to every intersecting
// rank, and concatenates the per-rank query_radius results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct RadiusQueryConfig {
  /// Metric radius; neighbors satisfy dist² < radius² (strict, the
  /// query_radius convention). Must be >= 0.
  float radius = 0.0f;
  /// Queries shipped per exchange round; a value at least the query
  /// count (SIZE_MAX, say) ships them all in one round.
  std::size_t batch_size = 256;
};

struct RadiusQueryBreakdown {
  double find_ranks = 0.0;
  double local_scan = 0.0;
  double merge = 0.0;
  double non_overlapped_comm = 0.0;
  /// Radius requests this rank answered (a query counts once per rank
  /// whose region its ball intersects).
  std::uint64_t queries_owned = 0;
  /// (query, rank) pairs this rank shipped out, self included.
  std::uint64_t requests_sent = 0;
};

class DistRadiusEngine {
 public:
  DistRadiusEngine(net::Comm& comm, const DistKdTree& tree)
      : comm_(comm), tree_(tree) {}

  /// Collective. Answers this rank's `queries` into the flat `results`
  /// table (rows mode): row i holds every indexed point within the
  /// radius of query i, ascending by (dist², id), so rows are
  /// invariant across rank counts and batch sizes. All ranks must call
  /// (with possibly empty query sets). The caller-owned table is
  /// reusable across runs.
  void run_into(const data::PointSet& queries,
                const RadiusQueryConfig& config,
                core::NeighborTable& results,
                RadiusQueryBreakdown* breakdown = nullptr);

 private:
  net::Comm& comm_;
  const DistKdTree& tree_;
  /// Reusable scratch: the batched local-scan staging (incoming query
  /// block, per-request radii, result table + workspace) and the
  /// per-round merge rows.
  data::PointSet scan_queries_{1};
  std::vector<float> scan_radii_;
  core::NeighborTable scan_found_;
  core::BatchWorkspace scan_ws_;
  std::vector<std::vector<core::Neighbor>> round_rows_;
};

}  // namespace panda::dist
