#include "baselines/local_trees.hpp"

#include "baselines/scatter.hpp"

namespace panda::baselines {

LocalTreesStrategy LocalTreesStrategy::build(net::Comm& comm,
                                             const data::PointSet& local_points,
                                             const core::BuildConfig& config) {
  LocalTreesStrategy strategy;
  strategy.tree_ = core::KdTree::build(local_points, config, comm.pool());
  return strategy;
}

std::vector<std::vector<core::Neighbor>> LocalTreesStrategy::query(
    net::Comm& comm, const data::PointSet& local_queries,
    std::size_t k) const {
  return scatter_query_merge(
      comm, local_queries, k, comm.pool(),
      [&](std::span<const float> q) {
        // Native flat entry point with a per-thread workspace: only
        // the returned vector (scatter_query_merge's contract)
        // allocates.
        thread_local core::QueryWorkspace ws;
        std::vector<core::Neighbor> out(k);
        out.resize(tree_.query_sq_into(
            q, k, std::numeric_limits<float>::infinity(), ws, out));
        return out;
      });
}

}  // namespace panda::baselines
