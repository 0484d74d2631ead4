// Mutable adapter: panda::Index over core::MutableIndex — the only
// adapter whose insert()/erase() succeed (DESIGN.md §12).
//
// Search calls map 1:1 onto the forest's batched kernels with the
// caller's ForestWorkspace (inside SearchWorkspace) — a KNN radius
// bound included, which the forest's heap prunes with — so results carry
// the same deterministic (dist², id) contract as every other adapter
// and stay id-exact against the brute-force oracle after any
// interleaving of mutations (tests/test_mutable_index.cpp). The one
// semantic divergence is self-KNN row keying: a mutating index has no
// stable build position, so rows are keyed by ascending live id —
// identical to build position when ids were inserted ascending (the
// shape of every generator in this repository).
#include <algorithm>
#include <memory>
#include <utility>

#include "api/adapters.hpp"
#include "common/error.hpp"

namespace panda::api {

namespace {

class MutableIndexAdapter final : public Index {
 public:
  MutableIndexAdapter(std::unique_ptr<core::MutableIndex> core)
      : core_(std::move(core)) {}

  std::size_t dims() const override { return core_->dims(); }
  std::uint64_t size() const override { return core_->size(); }
  const char* engine_name() const override { return "mutable"; }
  bool mutable_index() const override { return true; }

  void knn_into(const data::PointSet& queries, const SearchParams& params,
                core::NeighborTable& results, SearchWorkspace& ws) override {
    data::require_finite(data::PointSetView(queries), "Index::knn_into");
    PANDA_CHECK_MSG(params.radius >= 0.0f, "radius must be non-negative");
    core_->knn_batch(queries, params.k, results, ws.forest, params.policy,
                     params.radius);
  }

  void radius_into(const data::PointSet& queries,
                   std::span<const float> radii, core::NeighborTable& results,
                   SearchWorkspace& ws) override {
    data::require_finite(data::PointSetView(queries), "Index::radius_into");
    core_->radius_batch(queries, radii, results, ws.forest);
  }

  void self_knn_into(const SearchParams& params, core::NeighborTable& results,
                     SearchWorkspace& ws, SearchStats* stats) override {
    core_->self_knn_batch(params.k, results, ws.forest);
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->queries = results.size();
      const core::MutationStats m = core_->stats();
      stats->inserts = m.inserts;
      stats->erases = m.erases;
      stats->compactions = m.compactions;
    }
  }

  void insert(const data::PointSet& points) override {
    core_->insert(points);
  }

  std::size_t erase(std::span<const std::uint64_t> ids) override {
    return core_->erase(ids);
  }

  void save(const std::string& path) const override { core_->save(path); }

 private:
  std::unique_ptr<core::MutableIndex> core_;
};

}  // namespace

std::unique_ptr<Index> make_mutable_index(const data::PointSet& points,
                                          const IndexOptions& options) {
  auto pool = resolve_pool(options);
  std::unique_ptr<core::MutableIndex> core;
  if (points.size() >= options.mutable_config.buffer_capacity) {
    // Big initial set: build the seed tree synchronously instead of
    // routing a giant batch through the write buffer (queries would
    // brute-scan it until the background seal caught up).
    core::KdTree seed = core::KdTree::build(points, options.build, *pool);
    core = std::make_unique<core::MutableIndex>(
        std::move(seed), options.mutable_config, options.build,
        std::move(pool));
  } else {
    core = std::make_unique<core::MutableIndex>(
        points.dims(), options.mutable_config, options.build,
        std::move(pool));
    core->insert(points);
  }
  return std::make_unique<MutableIndexAdapter>(std::move(core));
}

std::unique_ptr<Index> make_mutable_index(core::KdTree tree,
                                          const IndexOptions& options) {
  auto core = std::make_unique<core::MutableIndex>(
      std::move(tree), options.mutable_config, options.build,
      resolve_pool(options));
  return std::make_unique<MutableIndexAdapter>(std::move(core));
}

std::unique_ptr<Index> make_mutable_index(std::size_t dims,
                                          const IndexOptions& options) {
  auto core = std::make_unique<core::MutableIndex>(
      dims, options.mutable_config, options.build, resolve_pool(options));
  return std::make_unique<MutableIndexAdapter>(std::move(core));
}

}  // namespace panda::api
