// Local adapter: panda::Index over the single-node core::KdTree.
//
// The thinnest adapter — every native facade call maps 1:1 onto one
// batched KdTree kernel with the caller's workspace, so the facade
// adds no staging, no copies, and no allocations over a direct engine
// call (tests/test_index.cpp pins the rows bit-identical to the direct
// kernels; perfbench's api.knn_overhead and api.self_overhead measure
// the overhead).
#include <memory>
#include <utility>

#include "api/adapters.hpp"
#include "common/error.hpp"

namespace panda::api {

namespace {

class LocalIndex final : public Index {
 public:
  LocalIndex(core::KdTree tree, std::shared_ptr<parallel::ThreadPool> pool)
      : tree_(std::move(tree)), pool_(std::move(pool)) {}

  std::size_t dims() const override { return tree_.dims(); }
  std::uint64_t size() const override { return tree_.size(); }
  const char* engine_name() const override { return "local"; }

  void knn_into(const data::PointSet& queries, const SearchParams& params,
                core::NeighborTable& results, SearchWorkspace& ws) override {
    data::require_finite(data::PointSetView(queries), "Index::knn_into");
    PANDA_CHECK_MSG(params.radius >= 0.0f, "radius must be non-negative");
    tree_.query_batch(queries, params.k, *pool_, results, ws.batch,
                      params.radius);
  }

  void radius_into(const data::PointSet& queries,
                   std::span<const float> radii, core::NeighborTable& results,
                   SearchWorkspace& ws) override {
    data::require_finite(data::PointSetView(queries), "Index::radius_into");
    tree_.query_radius_batch(queries, radii, *pool_, results, ws.batch);
  }

  void self_knn_into(const SearchParams& params, core::NeighborTable& results,
                     SearchWorkspace& ws, SearchStats* stats) override {
    tree_.query_self_batch(params.k, *pool_, results, ws.batch);
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->queries = tree_.size();
    }
  }

  void save(const std::string& path) const override { tree_.save(path); }

 private:
  core::KdTree tree_;
  std::shared_ptr<parallel::ThreadPool> pool_;
};

}  // namespace

namespace {

/// Rough in-RAM build footprint, mirroring the external build's
/// estimate: the points themselves, the builder's index arrays, and
/// the packed copy.
std::uint64_t estimate_build_bytes(const data::PointStorage& points) {
  return points.size() *
         3 * (points.dims() * sizeof(float) + 2 * sizeof(std::uint64_t));
}

}  // namespace

std::unique_ptr<Index> make_local_index(const data::PointStorage& points,
                                        const IndexOptions& options) {
  auto pool = resolve_pool(options);
  const bool external =
      options.memory_budget_bytes > 0 &&
      (estimate_build_bytes(points) > options.memory_budget_bytes ||
       !points.resident());
  core::KdTree tree;
  if (external) {
    PANDA_CHECK_MSG(!options.external_index_path.empty(),
                    "IndexOptions.memory_budget_bytes needs "
                    "external_index_path: the out-of-core build writes (and "
                    "serves) a v4 index file");
    core::ExternalBuildOptions ext;
    ext.memory_budget_bytes = options.memory_budget_bytes;
    ext.scratch_dir = options.external_scratch_dir;
    ext.out_path = options.external_index_path;
    tree = core::KdTree::build_external(points, options.build, *pool, ext);
  } else {
    tree = core::KdTree::build(points, options.build, *pool);
  }
  return std::make_unique<LocalIndex>(std::move(tree), std::move(pool));
}

std::unique_ptr<Index> make_local_index(const data::PointSet& points,
                                        const IndexOptions& options) {
  const data::PointSetView view(points);
  return make_local_index(static_cast<const data::PointStorage&>(view),
                          options);
}

std::unique_ptr<Index> make_local_index(core::KdTree tree,
                                        const IndexOptions& options) {
  return std::make_unique<LocalIndex>(std::move(tree),
                                      resolve_pool(options));
}

}  // namespace panda::api
