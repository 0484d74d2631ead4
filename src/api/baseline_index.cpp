// Baseline adapters: panda::Index over the reference engines.
//
// BruteForceIndex wraps the exhaustive linear scan (the repository's
// correctness oracle); SimpleTreeIndex wraps the serial FLANN/ANN-
// style reference kd-tree of the paper's Figure 7 comparison. Both
// return the exact (dist², id)-ordered results of the main engines —
// tests/test_index.cpp pins all adapters against the same oracle —
// at baseline-grade performance: per-query std::vector staging, no
// batched kernels. They exist so experiments can flip IndexOptions::
// Engine and measure, not for production traffic.
#include <algorithm>
#include <memory>
#include <utility>

#include "api/adapters.hpp"
#include "baselines/brute_force.hpp"
#include "common/error.hpp"

namespace panda::api {

namespace {

/// Common scaffolding: both baselines keep the build PointSet (the
/// self-KNN schedule and, for brute force, the scan target).
class BaselineIndex : public Index {
 public:
  explicit BaselineIndex(const data::PointSet& points) : points_(points) {}

  std::size_t dims() const override { return points_.dims(); }
  std::uint64_t size() const override { return points_.size(); }

  void knn_into(const data::PointSet& queries, const SearchParams& params,
                core::NeighborTable& results, SearchWorkspace& ws) override {
    PANDA_CHECK_MSG(queries.empty() || queries.dims() == dims(),
                    "query dimensionality mismatch");
    data::require_finite(data::PointSetView(queries), "Index::knn_into");
    PANDA_CHECK_MSG(params.k >= 1, "k must be >= 1");
    PANDA_CHECK_MSG(params.radius >= 0.0f, "radius must be non-negative");
    results.reset_topk(queries.size(), params.k);
    std::vector<float>& q = staging(ws);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      queries.copy_point(i, q.data());
      const auto row = query_one(q, params.k);
      results.assign_row(i, radius_prefix(row, params.radius));
    }
  }

  void radius_into(const data::PointSet& queries,
                   std::span<const float> radii, core::NeighborTable& results,
                   SearchWorkspace& ws) override {
    PANDA_CHECK_MSG(queries.empty() || queries.dims() == dims(),
                    "query dimensionality mismatch");
    data::require_finite(data::PointSetView(queries), "Index::radius_into");
    PANDA_CHECK_MSG(radii.size() == queries.size(),
                    "one radius per query required");
    results.reset_rows(queries.size());
    std::vector<float>& q = staging(ws);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      PANDA_CHECK_MSG(radii[i] >= 0.0f, "radius must be non-negative");
      queries.copy_point(i, q.data());
      // All-points KNN sorted ascending; the strict prefix is the
      // radius answer.
      const auto row = points_.empty()
                           ? std::vector<core::Neighbor>{}
                           : query_one(q, points_.size());
      results.append_row(i, radius_prefix(row, radii[i]));
    }
  }

  void self_knn_into(const SearchParams& params, core::NeighborTable& results,
                     SearchWorkspace& ws, SearchStats* stats) override {
    PANDA_CHECK_MSG(params.k >= 1, "k must be >= 1");
    results.reset_topk(points_.size(), params.k);
    std::vector<float>& q = staging(ws);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      points_.copy_point(i, q.data());
      results.assign_row(i, radius_prefix(query_one(q, params.k),
                                          params.radius));
    }
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->queries = points_.size();
    }
  }

 protected:
  /// One exact query, ascending (dist², id), at most k entries.
  virtual std::vector<core::Neighbor> query_one(std::span<const float> query,
                                                std::size_t k) = 0;

  /// AoS gather buffer for one query point, borrowed from the
  /// workspace (QueryWorkspace::query is exactly this buffer).
  std::vector<float>& staging(SearchWorkspace& ws) {
    ws.batch.prepare(1, dims());
    return ws.batch.per_thread[0].query;
  }

  data::PointSet points_;
};

class BruteForceIndex final : public BaselineIndex {
 public:
  using BaselineIndex::BaselineIndex;
  const char* engine_name() const override { return "brute-force"; }

 protected:
  std::vector<core::Neighbor> query_one(std::span<const float> query,
                                        std::size_t k) override {
    return baselines::brute_force_knn(points_, query, k);
  }
};

class SimpleTreeIndex final : public BaselineIndex {
 public:
  SimpleTreeIndex(const data::PointSet& points,
                  const baselines::SimpleBuildConfig& config)
      : BaselineIndex(points),
        tree_(baselines::SimpleKdTree::build(points, config)) {}

  const char* engine_name() const override { return "simple-tree"; }

 protected:
  std::vector<core::Neighbor> query_one(std::span<const float> query,
                                        std::size_t k) override {
    return tree_.query(query, k);
  }

 private:
  baselines::SimpleKdTree tree_;
};

}  // namespace

std::unique_ptr<Index> make_brute_force_index(const data::PointSet& points,
                                              const IndexOptions&) {
  return std::make_unique<BruteForceIndex>(points);
}

std::unique_ptr<Index> make_simple_tree_index(const data::PointSet& points,
                                              const IndexOptions& options) {
  return std::make_unique<SimpleTreeIndex>(points, options.simple);
}

}  // namespace panda::api
