// Out-of-core kd-tree construction (DESIGN.md §11).
//
// KdTree::build builds in RAM; build_external builds an index over a
// collection that does not fit the caller's memory budget:
//
//   1. sample — stream the input's chunk protocol once, keeping a
//      strided sample (<= 64Ki points);
//   2. top splitter — a complete binary tree of L = log2(n_chunks)
//      levels over the sample, reusing the in-RAM build's split
//      heuristics (max-variance dimension, positional sample median);
//   3. route — stream the input a second time, descending each point
//      through the splitter into one of 2^L on-disk spill chunks
//      (data::ChunkedStorage), carrying its global-order position;
//   4. per-chunk builds — each chunk is materialized and built with
//      the ordinary in-RAM three-phase builder, then its sections are
//      renumbered into the final index's id space and appended to
//      temporary section files;
//   5. stitch + stream — the top tree is linearized into the hot
//      sibling-adjacent layout with one stub slot per chunk, each
//      stub overwritten by its chunk's root; the v4 file is then
//      written as header + top nodes (RAM) + streamed section tails,
//      section CRCs accumulated while the tails are copied and
//      patched into the header before the atomic commit.
//
// The returned tree is KdTree::open_mmap(out_path). Because exact
// queries are order-insensitive under the deterministic (dist², id)
// tie rule, results are id-identical to an in-RAM build of the same
// points even though the two trees partition space differently.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "core/kdtree_format.hpp"
#include "core/median.hpp"
#include "data/storage.hpp"
#include "simd/distance.hpp"

namespace panda::core {

namespace {

using common::crc32c;
using detail::KdTreeHeader;

constexpr std::size_t kMaxSamplePoints = 65536;
constexpr std::size_t kMaxChunks = 1024;

/// Rough resident bytes per point during one chunk's in-RAM build:
/// the chunk PointSet (dims floats + id), the builder's index and
/// scratch arrays, and the packed copy — times a safety factor for
/// the build-phase node arrays.
std::uint64_t build_bytes_per_point(std::size_t dims) {
  return 3 * (dims * sizeof(float) + 2 * sizeof(std::uint64_t));
}

/// Append-only temporary file holding one final-layout section.
class SectionFile {
 public:
  explicit SectionFile(std::string path) : path_(std::move(path)) {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    PANDA_CHECK_MSG(out_.good(),
                    "cannot open section scratch for writing: " << path_);
  }
  ~SectionFile() {
    if (out_.is_open()) out_.close();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  template <typename T>
  void append(const T* data, std::size_t count) {
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(count * sizeof(T)));
    PANDA_CHECK_MSG(out_.good(), "section write failed: " << path_);
  }

  /// Flushes and streams the accumulated bytes into `out`, folding
  /// them into the running section CRC seeded with `crc` (the CRC of
  /// any in-RAM block already written ahead of this tail). Returns
  /// the section's final CRC.
  std::uint32_t drain_into(common::AtomicFileWriter& out, std::uint32_t crc) {
    out_.flush();
    PANDA_CHECK_MSG(out_.good(), "section flush failed: " << path_);
    out_.close();
    std::ifstream in(path_, std::ios::binary);
    PANDA_CHECK_MSG(in.good(), "cannot reopen section file: " << path_);
    std::vector<char> block(1 << 18);
    while (in) {
      in.read(block.data(), static_cast<std::streamsize>(block.size()));
      const auto n = static_cast<std::size_t>(in.gcount());
      if (n == 0) break;
      crc = crc32c(block.data(), n, crc);
      out.write(block.data(), n);
    }
    return crc;
  }

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace

/// friend of KdTree: assembles the stitched index.
class ExternalBuilder {
 public:
  using HotNode = KdTree::HotNode;
  using LeafInfo = KdTree::LeafInfo;

  ExternalBuilder(const data::PointStorage& points, const BuildConfig& config,
                  parallel::ThreadPool& pool,
                  const ExternalBuildOptions& options)
      : points_(points), config_(config), pool_(pool), options_(options) {
    PANDA_CHECK_MSG(!options.out_path.empty(),
                    "build_external needs options.out_path");
  }

  KdTree build() {
    const std::uint64_t n = points_.size();
    const std::size_t dims = points_.dims();
    const std::size_t n_chunks = choose_chunk_count(n, dims);
    if (n_chunks <= 1) {
      // Budget fits (or is unlimited): ordinary in-RAM build, saved
      // and served through the same mapped path as the chunked case.
      KdTree tree =
          KdTree::build(resident_input(), config_, pool_, nullptr);
      tree.save(options_.out_path);
      return KdTree::open_mmap(options_.out_path);
    }

    const std::size_t levels =
        static_cast<std::size_t>(std::countr_zero(n_chunks));
    build_splitter(sample_input(), levels);

    const std::string scratch = options_.scratch_dir.empty()
                                    ? options_.out_path + ".spill"
                                    : options_.scratch_dir;
    data::ChunkedStorage spill(scratch, dims, n_chunks);
    route_into(spill);
    spill.finish_writing();
    return stitch(spill, levels);
  }

 private:
  /// Smallest power of two such that one chunk's in-RAM build fits
  /// the budget (capped: chunk files must stay manageable).
  std::size_t choose_chunk_count(std::uint64_t n, std::size_t dims) const {
    if (options_.memory_budget_bytes == 0 || n == 0) return 1;
    const std::uint64_t per_point = build_bytes_per_point(dims);
    std::size_t chunks = 1;
    while (chunks < kMaxChunks &&
           (n / chunks + 1) * per_point > options_.memory_budget_bytes) {
      chunks *= 2;
    }
    return chunks;
  }

  /// The single-chunk fast path still honors non-resident inputs by
  /// materializing them (they fit the budget by definition).
  const data::PointStorage& resident_input() {
    if (points_.resident()) return points_;
    materialized_ = points_.to_point_set();
    owned_view_.emplace(materialized_);
    data::require_finite(*owned_view_, "KdTree::build_external");
    return *owned_view_;
  }

  /// Visits every point as (coords, id, global position) without
  /// materializing a resident input: resident storages (owned or
  /// mapped) are walked through their spans in place; spill-backed
  /// ones stream one chunk at a time, each refused if it holds a
  /// non-finite coordinate (the caller checks a resident input, as
  /// Index::build does).
  template <typename Fn>
  void for_each_point(Fn&& fn) const {
    const std::size_t dims = points_.dims();
    std::vector<float> coords(dims);
    if (points_.resident()) {
      std::vector<std::span<const float>> cols;
      cols.reserve(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        cols.push_back(points_.coordinate(d));
      }
      const auto ids = points_.ids();
      for (std::uint64_t i = 0; i < points_.size(); ++i) {
        for (std::size_t d = 0; d < dims; ++d) coords[d] = cols[d][i];
        fn(coords.data(), ids[i], i);
      }
      return;
    }
    data::PointSet chunk(dims);
    std::vector<std::uint64_t> positions;
    for (std::size_t c = 0; c < points_.chunk_count(); ++c) {
      points_.read_chunk(c, chunk, &positions);
      data::require_finite(data::PointSetView(chunk),
                           "KdTree::build_external");
      for (std::uint64_t i = 0; i < chunk.size(); ++i) {
        chunk.copy_point(i, coords.data());
        fn(coords.data(), chunk.id(i), positions[i]);
      }
    }
  }

  /// One streaming pass, keeping every ceil(n / kMaxSamplePoints)-th
  /// point — deterministic, order-stable.
  data::PointSet sample_input() const {
    const std::uint64_t n = points_.size();
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, (n + kMaxSamplePoints - 1) /
                                       kMaxSamplePoints);
    data::PointSet sample(points_.dims());
    sample.reserve(std::min<std::uint64_t>(n, kMaxSamplePoints + 1));
    std::uint64_t seen = 0;
    for_each_point([&](const float* coords, std::uint64_t id,
                       std::uint64_t /*position*/) {
      if (seen++ % stride == 0) {
        sample.push_point({coords, sample.dims()}, id);
      }
    });
    return sample;
  }

  /// Complete binary splitter tree over the sample, level-order
  /// (node i's children at 2i+1 / 2i+2), 2^levels leaves = chunks.
  /// Reuses the in-RAM build's heuristics: max-variance dimension,
  /// positional median of the sample — the median is positional so
  /// every split is non-degenerate on the sample even with heavy
  /// duplication.
  void build_splitter(const data::PointSet& sample, std::size_t levels) {
    const std::size_t internal = (std::size_t{1} << levels) - 1;
    split_dims_.assign(internal, 0);
    split_values_.assign(internal, 0.0f);
    std::vector<std::uint64_t> idx(sample.size());
    for (std::uint64_t i = 0; i < sample.size(); ++i) idx[i] = i;
    split_range(sample, idx, 0, idx.size(), 0, levels);
  }

  void split_range(const data::PointSet& sample,
                   std::vector<std::uint64_t>& idx, std::uint64_t lo,
                   std::uint64_t hi, std::size_t node, std::size_t depth) {
    if (depth == 0) return;
    std::size_t dim = 0;
    if (hi > lo) {
      dim = choose_dimension_by_variance(
          data::PointSetView(sample),
          std::span<const std::uint64_t>(idx.data() + lo, hi - lo),
          config_.variance_samples, nullptr);
    }
    std::uint64_t mid = lo + (hi - lo) / 2;
    float split = 0.0f;
    if (hi > lo) {
      const auto coords = sample.coordinate(dim);
      std::nth_element(idx.begin() + static_cast<std::ptrdiff_t>(lo),
                       idx.begin() + static_cast<std::ptrdiff_t>(mid),
                       idx.begin() + static_cast<std::ptrdiff_t>(hi),
                       [&coords](std::uint64_t a, std::uint64_t b) {
                         return coords[a] < coords[b];
                       });
      split = coords[idx[mid]];
      // Route by coord < split: points equal to the median go right,
      // so idx positions below mid that equal it belong right too —
      // re-partition for exact child sample ranges.
      auto* first = idx.data() + lo;
      auto* last = idx.data() + hi;
      auto* pivot = std::partition(first, last, [&](std::uint64_t p) {
        return coords[p] < split;
      });
      mid = lo + static_cast<std::uint64_t>(pivot - first);
    }
    split_dims_[node] = dim;
    split_values_[node] = split;
    split_range(sample, idx, lo, mid, 2 * node + 1, depth - 1);
    split_range(sample, idx, mid, hi, 2 * node + 2, depth - 1);
  }

  /// Chunk index for one point: descend the level-order splitter.
  std::size_t route_point(const float* coords) const {
    const std::size_t internal = split_dims_.size();
    std::size_t node = 0;
    while (node < internal) {
      const bool left = coords[split_dims_[node]] < split_values_[node];
      node = 2 * node + (left ? 1 : 2);
    }
    return node - internal;
  }

  /// Second streaming pass: append every input point (with its
  /// global-order position) to its spill chunk. Per-target buffers
  /// are flushed at a fixed fill so routing memory stays bounded no
  /// matter how large the input is.
  void route_into(data::ChunkedStorage& spill) {
    constexpr std::uint64_t kFlushAt = 8192;
    const std::size_t dims = points_.dims();
    const std::size_t n_chunks = spill.chunk_count();
    std::vector<data::PointSet> buffers;
    std::vector<std::vector<std::uint64_t>> buffer_positions(n_chunks);
    buffers.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) buffers.emplace_back(dims);

    for_each_point([&](const float* coords, std::uint64_t id,
                       std::uint64_t position) {
      const std::size_t target = route_point(coords);
      buffers[target].push_point({coords, dims}, id);
      buffer_positions[target].push_back(position);
      if (buffers[target].size() >= kFlushAt) {
        spill.append(target, buffers[target], buffer_positions[target]);
        buffers[target].clear();
        buffer_positions[target].clear();
      }
    });
    for (std::size_t t = 0; t < n_chunks; ++t) {
      if (buffers[t].empty()) continue;
      spill.append(t, buffers[t], buffer_positions[t]);
      buffers[t].clear();
      buffer_positions[t].clear();
    }
  }

  /// Hot-layout slots of the top tree: internal nodes plus one stub
  /// slot per chunk, sibling children adjacent. Returns the stub slot
  /// of each chunk (in chunk order). Linearized by the same pre-order
  /// DFS as the in-RAM builder.
  std::vector<std::uint32_t> linearize_top(std::vector<HotNode>& top,
                                           std::size_t levels) const {
    const std::size_t n_chunks = std::size_t{1} << levels;
    std::vector<std::uint32_t> stub_slot(n_chunks, 0);
    top.assign(2 * n_chunks - 1, HotNode{});
    struct Item {
      std::size_t split_node;  // level-order index into split_*_
      std::uint32_t slot;      // hot-layout slot
      std::size_t depth;
    };
    std::vector<Item> stack;
    std::uint32_t next_free = 1;
    stack.push_back({0, 0, 0});
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      if (item.depth == levels) {
        // Stub: chunk index = level-order leaf position.
        const std::size_t internal = (std::size_t{1} << levels) - 1;
        stub_slot[item.split_node - internal] = item.slot;
        continue;
      }
      HotNode hot;
      hot.split = split_values_[item.split_node];
      hot.dim = static_cast<std::uint32_t>(split_dims_[item.split_node]);
      hot.child = next_free;
      next_free += 2;
      top[item.slot] = hot;
      stack.push_back({2 * item.split_node + 2, hot.child + 1,
                       item.depth + 1});
      stack.push_back({2 * item.split_node + 1, hot.child, item.depth + 1});
    }
    return stub_slot;
  }

  /// Phase 4+5: per-chunk in-RAM builds, section renumbering into
  /// temp files, then one sequential write of the v4 layout.
  KdTree stitch(data::ChunkedStorage& spill, std::size_t levels) {
    const std::size_t dims = points_.dims();
    const std::size_t n_chunks = spill.chunk_count();
    std::vector<HotNode> top;
    const std::vector<std::uint32_t> stub_slot = linearize_top(top, levels);
    const std::uint64_t top_count = top.size();

    const std::string base = options_.out_path;
    SectionFile nodes_tail(base + ".nodes.tmp");
    SectionFile leaves_tail(base + ".leaves.tmp");
    SectionFile leaf_nodes_tail(base + ".leafnodes.tmp");
    SectionFile packed_tail(base + ".packed.tmp");
    SectionFile ids_tail(base + ".ids.tmp");
    SectionFile local_idx_tail(base + ".localidx.tmp");

    std::uint64_t tail_nodes = 0;   // nodes after the top block
    std::uint64_t leaf_total = 0;
    std::uint64_t slot_total = 0;   // packed slots
    std::uint64_t point_total = 0;
    std::uint32_t chunk_max_depth = 0;
    double fill_total = 0.0;

    data::PointSet chunk_points(dims);
    std::vector<std::uint64_t> positions;
    std::vector<HotNode> remapped_nodes;
    std::vector<LeafInfo> remapped_leaves;
    std::vector<std::uint32_t> remapped_leaf_nodes;
    std::vector<std::uint64_t> remapped_local_idx;

    for (std::size_t c = 0; c < n_chunks; ++c) {
      spill.read_chunk(c, chunk_points, &positions);
      if (chunk_points.empty()) {
        // Empty chunk: its stub becomes an empty leaf (count 0 —
        // scan_leaf's stride-0 early return handles it).
        HotNode leaf;
        leaf.dim = KdTree::kLeafMarker;
        leaf.child = static_cast<std::uint32_t>(leaf_total);
        top[stub_slot[c]] = leaf;
        LeafInfo info;
        info.packed_begin = slot_total;
        info.count = 0;
        leaves_tail.append(&info, 1);
        leaf_nodes_tail.append(&stub_slot[c], 1);
        leaf_total += 1;
        chunk_max_depth = std::max<std::uint32_t>(chunk_max_depth, 1);
        continue;
      }

      KdTree sub = KdTree::build(chunk_points, config_, pool_, nullptr);
      const std::uint32_t node_base =
          static_cast<std::uint32_t>(top_count + tail_nodes);
      const std::uint32_t leaf_base = static_cast<std::uint32_t>(leaf_total);

      // Renumber: local root (slot 0) lands in the chunk's stub slot;
      // locals j >= 1 land at node_base + j - 1, preserving the
      // sibling-adjacency of child pairs (children are never slot 0).
      auto remap_node = [&](std::uint32_t local) {
        return local == 0 ? stub_slot[c] : node_base + local - 1;
      };
      remapped_nodes.clear();
      for (std::size_t j = 0; j < sub.nodes_.size(); ++j) {
        HotNode hot = sub.nodes_[j];
        if (hot.dim == KdTree::kLeafMarker) {
          hot.child += leaf_base;
        } else {
          hot.child = remap_node(hot.child);
        }
        if (j == 0) {
          top[stub_slot[c]] = hot;
        } else {
          remapped_nodes.push_back(hot);
        }
      }
      nodes_tail.append(remapped_nodes.data(), remapped_nodes.size());
      tail_nodes += remapped_nodes.size();

      remapped_leaves.assign(sub.leaves_.begin(), sub.leaves_.end());
      for (LeafInfo& info : remapped_leaves) info.packed_begin += slot_total;
      leaves_tail.append(remapped_leaves.data(), remapped_leaves.size());

      remapped_leaf_nodes.assign(sub.leaf_nodes_.begin(),
                                 sub.leaf_nodes_.end());
      for (std::uint32_t& v : remapped_leaf_nodes) v = remap_node(v);
      leaf_nodes_tail.append(remapped_leaf_nodes.data(),
                             remapped_leaf_nodes.size());

      packed_tail.append(sub.packed_.data(), sub.packed_.size());
      ids_tail.append(sub.packed_ids_.data(), sub.packed_ids_.size());

      // Local packed indices are chunk-row numbers; positions[] maps
      // them back to the input's global order so self-KNN rows match
      // an in-RAM build. Padding slots (~0) stay padding.
      remapped_local_idx.assign(sub.packed_local_idx_.begin(),
                                sub.packed_local_idx_.end());
      for (std::uint64_t& v : remapped_local_idx) {
        if (v != ~std::uint64_t{0}) v = positions[v];
      }
      local_idx_tail.append(remapped_local_idx.data(),
                            remapped_local_idx.size());

      leaf_total += sub.leaves_.size();
      slot_total += sub.packed_ids_.size();
      point_total += sub.size();
      chunk_max_depth =
          std::max(chunk_max_depth, sub.stats().max_depth);
      fill_total += sub.stats().mean_leaf_fill *
                    static_cast<double>(sub.stats().leaves);
    }

    PANDA_CHECK_MSG(point_total == points_.size(),
                    "external build routed " << point_total << " of "
                                             << points_.size() << " points");

    // Header + aggregate stats.
    TreeStats stats;
    stats.nodes = top_count + tail_nodes;
    stats.leaves = leaf_total;
    stats.points = point_total;
    stats.max_depth = static_cast<std::uint32_t>(levels) + chunk_max_depth;
    stats.mean_leaf_fill =
        leaf_total == 0
            ? 0.0
            : fill_total / static_cast<double>(leaf_total);
    KdTreeHeader header;
    detail::init_header(header, dims, stats, config_);
    header.node_count = stats.nodes;
    header.leaf_count = leaf_total;
    header.packed_count = slot_total * dims;
    header.id_count = slot_total;
    detail::layout_sections(header);

    // Stream the file: a header with zeroed checksums first, section
    // CRCs accumulated as each tail is copied, then the finished
    // header patched in place before the atomic commit. The top node
    // block is checksummed from RAM and chained into the tail's CRC.
    common::AtomicFileWriter out(options_.out_path);
    out.write(&header, sizeof(header));
    out.pad(header.nodes_off - sizeof(header));
    const std::uint32_t top_crc =
        crc32c(top.data(), top.size() * sizeof(HotNode));
    out.write(top.data(), top.size() * sizeof(HotNode));
    header.section_crc[0] = nodes_tail.drain_into(out, top_crc);
    out.pad(header.leaves_off -
            (header.nodes_off + header.node_count * sizeof(HotNode)));
    header.section_crc[1] = leaves_tail.drain_into(out, 0);
    out.pad(header.leaf_nodes_off -
            (header.leaves_off + header.leaf_count * sizeof(LeafInfo)));
    header.section_crc[2] = leaf_nodes_tail.drain_into(out, 0);
    out.pad(header.packed_off -
            (header.leaf_nodes_off + header.leaf_count * sizeof(std::uint32_t)));
    header.section_crc[3] = packed_tail.drain_into(out, 0);
    out.pad(header.ids_off -
            (header.packed_off + header.packed_count * sizeof(float)));
    header.section_crc[4] = ids_tail.drain_into(out, 0);
    out.pad(header.local_idx_off -
            (header.ids_off + header.id_count * sizeof(std::uint64_t)));
    header.section_crc[5] = local_idx_tail.drain_into(out, 0);
    header.header_crc = 0;
    header.header_crc = crc32c(&header, sizeof(header));
    out.overwrite(0, &header, sizeof(header));
    out.commit();

    return KdTree::open_mmap(options_.out_path);
  }

  const data::PointStorage& points_;
  BuildConfig config_;
  parallel::ThreadPool& pool_;
  ExternalBuildOptions options_;

  // Single-chunk fast path materialization (kept alive through build).
  data::PointSet materialized_;
  std::optional<data::PointSetView> owned_view_;

  // Top splitter, level-order complete binary tree.
  std::vector<std::size_t> split_dims_;
  std::vector<float> split_values_;
};

KdTree KdTree::build_external(const data::PointStorage& points,
                              const BuildConfig& config,
                              parallel::ThreadPool& pool,
                              const ExternalBuildOptions& options) {
  ExternalBuilder builder(points, config, pool, options);
  return builder.build();
}

}  // namespace panda::core
