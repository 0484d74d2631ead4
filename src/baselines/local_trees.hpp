// Strategy (1) of Section III-A: independent local trees, no global
// redistribution.
//
// Construction is trivially parallel (each rank indexes whatever slice
// it read), but every query must be answered by every rank and P*k
// candidates travel the network per query. PANDA's global-tree design
// is measured against this in bench_ablation.
#pragma once

#include <vector>

#include "core/kdtree.hpp"
#include "data/point_set.hpp"
#include "net/comm.hpp"

namespace panda::baselines {

class LocalTreesStrategy {
 public:
  /// Collective (only for symmetry — no communication is needed to
  /// build). Indexes this rank's slice as-is.
  static LocalTreesStrategy build(net::Comm& comm,
                                  const data::PointSet& local_points,
                                  const core::BuildConfig& config);

  /// Collective. Answers this rank's queries by broadcasting them to
  /// all ranks and merging the per-rank candidates.
  std::vector<std::vector<core::Neighbor>> query(
      net::Comm& comm, const data::PointSet& local_queries,
      std::size_t k) const;

  const core::KdTree& tree() const { return tree_; }

 private:
  core::KdTree tree_;
};

}  // namespace panda::baselines
