// panda::Index — construction dispatch and the convenience shims.
#include "api/index.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "api/adapters.hpp"
#include "common/error.hpp"

namespace panda {

namespace {

void validate_options(const IndexOptions& options) {
  PANDA_CHECK_MSG(options.threads >= 0,
                  "IndexOptions.threads must be >= 0 (0 = hardware)");
  if (options.engine == IndexOptions::Engine::Dist) {
    PANDA_CHECK_MSG(options.cluster.ranks >= 1,
                    "IndexOptions.cluster.ranks must be >= 1");
    PANDA_CHECK_MSG(options.cluster.threads_per_rank >= 1,
                    "IndexOptions.cluster.threads_per_rank must be >= 1");
  }
  if (options.engine == IndexOptions::Engine::Mutable) {
    PANDA_CHECK_MSG(options.mutable_config.buffer_capacity >= 1,
                    "IndexOptions.mutable_config.buffer_capacity must be "
                    ">= 1");
    PANDA_CHECK_MSG(options.mutable_config.merge_fan_in >= 2,
                    "IndexOptions.mutable_config.merge_fan_in must be >= 2");
  }
}

}  // namespace

namespace api {

std::shared_ptr<parallel::ThreadPool> resolve_pool(
    const IndexOptions& options) {
  if (options.pool != nullptr) return options.pool;
  int threads = options.threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  return std::make_shared<parallel::ThreadPool>(threads);
}

}  // namespace api

void Index::save(const std::string&) const {
  throw Error(std::string("panda::Index::save is not supported by the ") +
              engine_name() +
              " adapter (Local and Mutable indexes persist; rebuild "
              "instead)");
}

void Index::insert(const data::PointSet&) {
  throw Error(std::string("panda::Index::insert is not supported by the ") +
              engine_name() +
              " adapter (build with Engine::Mutable for live updates)");
}

std::size_t Index::erase(std::span<const std::uint64_t>) {
  throw Error(std::string("panda::Index::erase is not supported by the ") +
              engine_name() +
              " adapter (build with Engine::Mutable for live updates)");
}

void Index::radius_into(const data::PointSet& queries,
                        const SearchParams& params,
                        core::NeighborTable& results, SearchWorkspace& ws) {
  PANDA_CHECK_MSG(params.radius >= 0.0f,
                  "SearchParams.radius must be >= 0 for radius searches");
  if (ws.radii.size() < queries.size()) ws.radii.resize(queries.size());
  std::fill(ws.radii.begin(),
            ws.radii.begin() + static_cast<std::ptrdiff_t>(queries.size()),
            params.radius);
  radius_into(queries,
              std::span<const float>(ws.radii.data(), queries.size()),
              results, ws);
}

std::vector<core::Neighbor> Index::knn(std::span<const float> query,
                                       std::size_t k) {
  data::PointSet one(dims());
  one.push_point(query, 0);
  SearchParams params;
  params.k = k;
  core::NeighborTable results;
  SearchWorkspace ws;
  knn_into(one, params, results, ws);
  const auto row = results[0];
  return {row.begin(), row.end()};
}

std::vector<core::Neighbor> Index::radius_search(std::span<const float> query,
                                                 float radius) {
  data::PointSet one(dims());
  one.push_point(query, 0);
  const float radii[1] = {radius};
  core::NeighborTable results;
  SearchWorkspace ws;
  radius_into(one, radii, results, ws);
  const auto row = results[0];
  return {row.begin(), row.end()};
}

std::unique_ptr<Index> Index::build(const data::PointSet& points,
                                    const IndexOptions& options) {
  PANDA_CHECK_MSG(points.dims() >= 1,
                  "Index::build needs points with at least one dimension");
  validate_options(options);
  data::require_finite(data::PointSetView(points), "Index::build");
  switch (options.engine) {
    case IndexOptions::Engine::Local:
      return api::make_local_index(points, options);
    case IndexOptions::Engine::Dist:
      return api::make_dist_index(points, options);
    case IndexOptions::Engine::BruteForce:
      return api::make_brute_force_index(points, options);
    case IndexOptions::Engine::SimpleTree:
      return api::make_simple_tree_index(points, options);
    case IndexOptions::Engine::Mutable:
      return api::make_mutable_index(points, options);
  }
  throw Error("IndexOptions.engine is not a known engine");
}

std::unique_ptr<Index> Index::build(const data::PointStorage& points,
                                    const IndexOptions& options) {
  PANDA_CHECK_MSG(points.dims() >= 1,
                  "Index::build needs points with at least one dimension");
  validate_options(options);
  if (options.engine == IndexOptions::Engine::Local) {
    // Non-resident storage is checked chunk by chunk as the out-of-core
    // build reads it.
    if (points.resident()) data::require_finite(points, "Index::build");
    return api::make_local_index(points, options);
  }
  // The non-local engines take owned PointSets; materialize through
  // the chunk protocol (works on every backend, needs the collection
  // to fit in RAM). The PointSet overload checks the coordinates.
  const data::PointSet owned = points.to_point_set();
  return build(owned, options);
}

namespace {

/// Dims field of a durable directory's MANIFEST — just enough parsing
/// to size the MutableIndex; recovery re-reads and fully validates the
/// file (CRC included).
std::uint32_t peek_manifest_dims(const std::string& manifest) {
  std::ifstream in(manifest, std::ios::binary);
  PANDA_CHECK_MSG(in.good(),
                  "not a durable index directory (no readable MANIFEST): "
                      << manifest);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t dims = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&dims), sizeof(dims));
  PANDA_CHECK_MSG(in.good() && dims >= 1,
                  "durable MANIFEST truncated: " << manifest);
  return dims;
}

std::unique_ptr<Index> wrap_opened_tree(core::KdTree tree,
                                        const IndexOptions& options) {
  if (options.engine == IndexOptions::Engine::Mutable) {
    // The saved tree seeds the forest's largest level; new writes
    // stack on top of it (DESIGN.md §12).
    return api::make_mutable_index(std::move(tree), options);
  }
  return api::make_local_index(std::move(tree), options);
}

}  // namespace

std::unique_ptr<Index> Index::open(const std::string& path,
                                   const IndexOptions& options) {
  PANDA_CHECK_MSG(options.engine == IndexOptions::Engine::Local ||
                      options.engine == IndexOptions::Engine::Mutable,
                  "Index::open loads the core::KdTree on-disk format; "
                  "options.engine must be Local or Mutable");
  validate_options(options);
  if (std::filesystem::is_directory(path)) {
    // A durable MutableIndex directory: recover the committed trees +
    // WAL (DESIGN.md §13).
    PANDA_CHECK_MSG(options.engine == IndexOptions::Engine::Mutable,
                    "Index::open: " << path
                                    << " is a durable index directory; open "
                                       "it with Engine::Mutable");
    IndexOptions durable = options;
    durable.mutable_config.durable_dir = path;
    const std::uint32_t dims = peek_manifest_dims(path + "/MANIFEST");
    return api::make_mutable_index(static_cast<std::size_t>(dims), durable);
  }
  // Zero-copy: map + validate the header (CRC included), bind the
  // query views. With verify_on_open the section checksums stream the
  // file once; without it no section is read and open cost is O(1) in
  // index size.
  return wrap_opened_tree(
      core::KdTree::open_mmap(path, options.verify_on_open), options);
}

}  // namespace panda
