// The distributed kd-tree (paper Section III-B): a replicated global
// tree routing points (and later queries) to ranks, plus one local
// core::KdTree per rank over the redistributed points.
//
// Construction:
//   1. global splits — level-synchronous over rank groups: each rank
//      samples up to 256 of its points per active group (the paper's
//      m = 256 per rank), samples are allgathered, every rank
//      independently (and identically) picks the maximum-variance
//      dimension and a sampled median split, and points are reassigned
//      to child groups locally — no data moves yet;
//   2. redistribution — one all-to-all exchange sends every point to
//      the rank owning its region (exchange_points);
//   3. local build — the existing three-phase core::KdTree build runs
//      per rank on its redistributed slice.
#pragma once

#include "core/kdtree.hpp"
#include "data/point_set.hpp"
#include "dist/global_tree.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct DistBuildConfig {
  /// Configuration of the per-rank local tree build.
  core::BuildConfig local;
};

/// Build-phase wall-clock seconds, the construction side of Figure
/// 5(b): the two distributed phases plus the local three-phase
/// breakdown.
struct DistBuildBreakdown {
  double global_tree = 0.0;
  double redistribute = 0.0;
  double local_data_parallel = 0.0;
  double local_thread_parallel = 0.0;
  double simd_packing = 0.0;

  double total() const {
    return global_tree + redistribute + local_data_parallel +
           local_thread_parallel + simd_packing;
  }
};

class DistKdTree {
 public:
  DistKdTree() = default;

  /// Collective. Builds the global tree from `slice` (this rank's
  /// share of the dataset; may be empty on some ranks but must have
  /// the same dims() everywhere), redistributes, and builds the local
  /// tree on comm.pool(). With one rank the global phases are skipped
  /// entirely and their breakdown entries stay exactly 0.
  static DistKdTree build(net::Comm& comm, const data::PointSet& slice,
                          const DistBuildConfig& config,
                          DistBuildBreakdown* breakdown = nullptr);

  std::size_t dims() const { return global_tree_.dims(); }
  const GlobalTree& global_tree() const { return global_tree_; }
  /// This rank's points after redistribution (ids preserved).
  const data::PointSet& local_points() const { return local_points_; }
  const core::KdTree& local_tree() const { return local_tree_; }
  const DistBuildConfig& config() const { return config_; }

 private:
  GlobalTree global_tree_;
  data::PointSet local_points_;
  core::KdTree local_tree_;
  DistBuildConfig config_;
};

}  // namespace panda::dist
