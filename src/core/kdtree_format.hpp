// On-disk layout of the PANDA kd-tree index file (KdTree::save /
// load / open_mmap). Shared between the serializer (kdtree_io.cpp)
// and the out-of-core build (kdtree_external.cpp), which streams its
// stitched tree straight into this layout; nothing outside src/core
// should need these definitions.
//
// One version is readable: 4, the checksummed mmap layout (DESIGN.md
// §11.2, §13). A 256-byte header block records a 64-byte-aligned
// offset per section (hot nodes, cold leaf infos, leaf-node map,
// packed SoA floats, packed ids, local-index map), a CRC32C per
// section, and a CRC32C over the header itself, so open_mmap binds
// query views into the map after reading nothing but the header.
// Every other version is refused with one "rebuild and re-save"
// diagnostic.
//
// All integers little-endian; a byte-swapped magic is diagnosed as an
// endianness mismatch rather than "not an index".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/kdtree.hpp"

namespace panda::core::detail {

inline constexpr std::uint64_t kKdTreeMagic = 0x50414e44414b4454ULL;
inline constexpr std::uint32_t kKdTreeVersion = 4;

/// Number of checksummed sections, in file order: hot nodes, cold
/// leaf infos, leaf-node map, packed floats, packed ids, local-index
/// map. kKdTreeSectionNames matches this order and is the vocabulary
/// of corruption diagnostics; each section's offset field is its name
/// plus "_off".
inline constexpr std::size_t kKdTreeSectionCount = 6;
inline constexpr const char* kKdTreeSectionNames[kKdTreeSectionCount] = {
    "nodes", "leaves", "leaf_nodes", "packed", "ids", "local_idx"};

/// Upper bound on believable dimensionality (matches the point-file
/// bound): a corrupt header fails validation instead of driving a
/// huge allocation or an out-of-bounds span.
inline constexpr std::uint32_t kMaxKdTreeDims = 4096;

/// Section element sizes, spelled as constants because HotNode /
/// LeafInfo are private to KdTree; save() static_asserts they match.
inline constexpr std::uint64_t kHotNodeBytes = 12;
inline constexpr std::uint64_t kLeafInfoBytes = 16;

/// The header; the file reserves kKdTreeHeaderSpan bytes for it
/// (zero-padded) so the first section starts 64-aligned.
/// `section_crc[i]` covers the live bytes of section i (in
/// kKdTreeSectionNames order — alignment padding between sections is
/// excluded, so the checksum is a property of the data, not the
/// layout). `header_crc` covers the first sizeof(KdTreeHeader) bytes
/// with the header_crc field itself zeroed.
struct KdTreeHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t dims;
  std::uint64_t node_count;
  std::uint64_t leaf_count;
  std::uint64_t packed_count;  // floats
  std::uint64_t id_count;      // slots (ids and local-index map)
  std::uint64_t file_size;     // total bytes, for validation
  // Section offsets, each 64-byte-aligned from the file start.
  std::uint64_t nodes_off;
  std::uint64_t leaves_off;
  std::uint64_t leaf_nodes_off;
  std::uint64_t packed_off;
  std::uint64_t ids_off;
  std::uint64_t local_idx_off;
  TreeStats stats;
  BuildConfig config;
  std::uint32_t section_crc[kKdTreeSectionCount];
  std::uint32_t header_crc;
};
inline constexpr std::size_t kKdTreeHeaderSpan = 256;
static_assert(sizeof(KdTreeHeader) <= kKdTreeHeaderSpan);

/// Starts a writer's header: every byte zero, padding included, then
/// identity, dims, stats and config. Stats and config are copied field
/// by field, because assigning a struct may carry its indeterminate
/// padding bytes into the file; so two saves of one tree are
/// byte-identical. The size checks flag a field added to either struct
/// that this copy would miss.
inline void init_header(KdTreeHeader& h, std::size_t dims,
                        const TreeStats& stats, const BuildConfig& config) {
  static_assert(sizeof(TreeStats) == 40 && sizeof(BuildConfig) == 48,
                "copy every TreeStats / BuildConfig field below");
  std::memset(static_cast<void*>(&h), 0, sizeof(h));
  h.magic = kKdTreeMagic;
  h.version = kKdTreeVersion;
  h.dims = static_cast<std::uint32_t>(dims);
  h.stats.nodes = stats.nodes;
  h.stats.leaves = stats.leaves;
  h.stats.points = stats.points;
  h.stats.max_depth = stats.max_depth;
  h.stats.mean_leaf_fill = stats.mean_leaf_fill;
  h.config.dim_policy = config.dim_policy;
  h.config.bucket_size = config.bucket_size;
  h.config.variance_samples = config.variance_samples;
  h.config.median_samples = config.median_samples;
  h.config.thread_switch_factor = config.thread_switch_factor;
  h.config.exact_median_threshold = config.exact_median_threshold;
  h.config.serial_split_threshold = config.serial_split_threshold;
  h.config.use_subinterval_search = config.use_subinterval_search;
}

inline constexpr std::uint64_t align64(std::uint64_t x) {
  return (x + 63) & ~std::uint64_t{63};
}

inline constexpr std::uint64_t byteswap64(std::uint64_t x) {
  return __builtin_bswap64(x);
}

/// Fills the section offsets and file_size of `h` from its counts in
/// the canonical (tightly packed, 64-aligned) order every writer
/// emits.
inline void layout_sections(KdTreeHeader& h) {
  h.nodes_off = kKdTreeHeaderSpan;
  h.leaves_off = align64(h.nodes_off + h.node_count * kHotNodeBytes);
  h.leaf_nodes_off = align64(h.leaves_off + h.leaf_count * kLeafInfoBytes);
  h.packed_off =
      align64(h.leaf_nodes_off + h.leaf_count * sizeof(std::uint32_t));
  h.ids_off = align64(h.packed_off + h.packed_count * sizeof(float));
  h.local_idx_off = align64(h.ids_off + h.id_count * sizeof(std::uint64_t));
  h.file_size = h.local_idx_off + h.id_count * sizeof(std::uint64_t);
}

}  // namespace panda::core::detail
