// Persistence for built kd-trees.
//
// One format, version 4 (core/kdtree_format.hpp): a 256-byte header
// recording a 64-byte-aligned offset per section (hot nodes, cold
// leaf infos, the leaf-node map, packed SoA floats, packed ids, the
// local-index map), plus a CRC32C per section and over the header, so
// torn writes and bit rot are detected instead of served. open_mmap()
// is the one parser: it maps the file, validates the header (and,
// unless the caller opts out, the section checksums) and binds the
// query views straight into the map. load() copies the sections out
// of a fully verified mapping. Every other version is refused with a
// rebuild diagnostic. All saves go through common::AtomicFileWriter:
// a crash mid-save leaves the previous file intact, never a prefix.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "core/kdtree_format.hpp"

namespace panda::core {

namespace {

using common::crc32c;
using detail::byteswap64;
using detail::kHotNodeBytes;
using detail::KdTreeHeader;
using detail::kKdTreeHeaderSpan;
using detail::kKdTreeMagic;
using detail::kKdTreeSectionCount;
using detail::kKdTreeSectionNames;
using detail::kKdTreeVersion;
using detail::kLeafInfoBytes;
using detail::kMaxKdTreeDims;

/// Byte size of each checksummed section, in kKdTreeSectionNames
/// order (live bytes only — no alignment padding). Cannot wrap once
/// read_header has bounded the counts by the file size.
std::array<std::uint64_t, kKdTreeSectionCount> section_sizes(
    const KdTreeHeader& h) {
  return {h.node_count * kHotNodeBytes,
          h.leaf_count * kLeafInfoBytes,
          h.leaf_count * sizeof(std::uint32_t),
          h.packed_count * sizeof(float),
          h.id_count * sizeof(std::uint64_t),
          h.id_count * sizeof(std::uint64_t)};
}

std::array<std::uint64_t, kKdTreeSectionCount> section_offsets(
    const KdTreeHeader& h) {
  return {h.nodes_off,  h.leaves_off, h.leaf_nodes_off,
          h.packed_off, h.ids_off,    h.local_idx_off};
}

/// Copies and validates the header of a mapped index: identity
/// (magic, endianness, version), then every structural field against
/// the file size — all before any section pointer is formed — and
/// last the header CRC, so a corrupted named field still gets its
/// named diagnostic. A CRC is not a MAC (a crafted header recomputes
/// it), so the structural checks alone must keep every section inside
/// the file: each count is bounded by the file size before it is
/// multiplied, and each offset + size is checked without wrapping.
KdTreeHeader read_header(const common::MmapFile& file) {
  const std::string& path = file.path();
  const std::uint64_t size = file.size();
  KdTreeHeader h{};
  if (size > 0) {
    std::memcpy(&h, file.data(), std::min<std::uint64_t>(size, sizeof(h)));
  }
  // Magic and version sit at the same offsets in every revision, so a
  // short file from another revision is refused by version rather
  // than as truncated.
  const bool identified =
      size >= offsetof(KdTreeHeader, dims) && h.magic == kKdTreeMagic;
  PANDA_CHECK_MSG(!identified || h.version == kKdTreeVersion,
                  "unsupported kd-tree version "
                      << h.version << " (expected " << kKdTreeVersion
                      << "); rebuild and re-save the index: " << path);
  PANDA_CHECK_MSG(size >= kKdTreeHeaderSpan,
                  "kd-tree file too small for a header: " << path);
  PANDA_CHECK_MSG(h.magic != byteswap64(kKdTreeMagic),
                  "kd-tree file has byte-swapped magic (endianness "
                  "mismatch — file written on a big-endian host?): "
                      << path);
  PANDA_CHECK_MSG(h.magic == kKdTreeMagic, "not a PANDA kd-tree: " << path);
  PANDA_CHECK_MSG(h.dims >= 1 && h.dims <= kMaxKdTreeDims,
                  "kd-tree header field 'dims' out of bounds ("
                      << h.dims << ", expected 1.." << kMaxKdTreeDims
                      << "): " << path);
  PANDA_CHECK_MSG(h.file_size == size,
                  "kd-tree header field 'file_size' inconsistent ("
                      << h.file_size << " recorded, " << size
                      << " actual): " << path);
  const struct {
    const char* name;
    std::uint64_t count;
    std::uint64_t elem_bytes;
  } counts[] = {{"node_count", h.node_count, kHotNodeBytes},
                {"leaf_count", h.leaf_count, kLeafInfoBytes},
                {"packed_count", h.packed_count, sizeof(float)},
                {"id_count", h.id_count, sizeof(std::uint64_t)}};
  for (const auto& c : counts) {
    PANDA_CHECK_MSG(c.count <= size / c.elem_bytes,
                    "kd-tree header field '"
                        << c.name << "' out of bounds (" << c.count
                        << " elements cannot fit a " << size
                        << "-byte file): " << path);
  }
  // Child links and leaf references are 32-bit.
  PANDA_CHECK_MSG(h.node_count < 0xffffffffull &&
                      h.leaf_count < 0xffffffffull,
                  "kd-tree header node/leaf counts out of bounds: " << path);
  const auto offs = section_offsets(h);
  const auto sizes = section_sizes(h);
  for (std::size_t s = 0; s < kKdTreeSectionCount; ++s) {
    PANDA_CHECK_MSG(offs[s] % 64 == 0,
                    "kd-tree header has misaligned section offsets: " << path);
    PANDA_CHECK_MSG(offs[s] >= kKdTreeHeaderSpan && offs[s] <= size &&
                        sizes[s] <= size - offs[s],
                    "kd-tree header field '"
                        << kKdTreeSectionNames[s] << "_off' out of file "
                        << "bounds (" << offs[s] << " + " << sizes[s]
                        << " bytes, file has " << size << "): " << path);
  }
  KdTreeHeader copy = h;
  copy.header_crc = 0;
  const std::uint32_t computed = crc32c(&copy, sizeof(copy));
  PANDA_CHECK_MSG(computed == h.header_crc,
                  "kd-tree header checksum mismatch (stored 0x"
                      << std::hex << h.header_crc << ", computed 0x"
                      << computed << std::dec << "): " << path);
  return h;
}

/// Verifies every section CRC against the mapped bytes; the
/// diagnostic names the section so corruption is attributable.
void verify_section_crcs(const KdTreeHeader& h, const common::MmapFile& file) {
  const auto offs = section_offsets(h);
  const auto sizes = section_sizes(h);
  for (std::size_t s = 0; s < kKdTreeSectionCount; ++s) {
    const std::uint32_t computed = crc32c(file.data() + offs[s], sizes[s]);
    PANDA_CHECK_MSG(computed == h.section_crc[s],
                    "kd-tree section '" << kKdTreeSectionNames[s]
                                        << "' checksum mismatch (stored 0x"
                                        << std::hex << h.section_crc[s]
                                        << ", computed 0x" << computed
                                        << std::dec << "): " << file.path());
  }
}

}  // namespace

void KdTree::save(const std::string& path) const {
  static_assert(std::is_trivially_copyable_v<HotNode>);
  static_assert(std::is_trivially_copyable_v<LeafInfo>);
  static_assert(std::is_trivially_copyable_v<TreeStats>);
  static_assert(std::is_trivially_copyable_v<BuildConfig>);
  static_assert(sizeof(HotNode) == kHotNodeBytes);
  static_assert(sizeof(LeafInfo) == kLeafInfoBytes);

  KdTreeHeader header;
  detail::init_header(header, dims_, stats_, config_);
  header.node_count = nodes_.size();
  header.leaf_count = leaves_.size();
  header.packed_count = packed_.size();
  header.id_count = packed_ids_.size();
  detail::layout_sections(header);
  header.section_crc[0] = crc32c(nodes_.data(), nodes_.size_bytes());
  header.section_crc[1] = crc32c(leaves_.data(), leaves_.size_bytes());
  header.section_crc[2] = crc32c(leaf_nodes_.data(), leaf_nodes_.size_bytes());
  header.section_crc[3] = crc32c(packed_.data(), packed_.size_bytes());
  header.section_crc[4] = crc32c(packed_ids_.data(), packed_ids_.size_bytes());
  header.section_crc[5] =
      crc32c(packed_local_idx_.data(), packed_local_idx_.size_bytes());
  header.header_crc = 0;
  header.header_crc = crc32c(&header, sizeof(header));

  common::AtomicFileWriter out(path);
  out.write(&header, sizeof(header));
  out.pad(header.nodes_off - sizeof(header));
  out.write(nodes_.data(), nodes_.size_bytes());
  out.pad(header.leaves_off - (header.nodes_off + nodes_.size_bytes()));
  out.write(leaves_.data(), leaves_.size_bytes());
  out.pad(header.leaf_nodes_off - (header.leaves_off + leaves_.size_bytes()));
  out.write(leaf_nodes_.data(), leaf_nodes_.size_bytes());
  out.pad(header.packed_off -
          (header.leaf_nodes_off + leaf_nodes_.size_bytes()));
  out.write(packed_.data(), packed_.size_bytes());
  out.pad(header.ids_off - (header.packed_off + packed_.size_bytes()));
  out.write(packed_ids_.data(), packed_ids_.size_bytes());
  out.pad(header.local_idx_off - (header.ids_off + packed_ids_.size_bytes()));
  out.write(packed_local_idx_.data(), packed_local_idx_.size_bytes());
  out.commit();
}

KdTree KdTree::load(const std::string& path) {
  const KdTree mapped = open_mmap(path, /*verify_sections=*/true);
  KdTree tree;
  tree.dims_ = mapped.dims_;
  tree.stats_ = mapped.stats_;
  tree.config_ = mapped.config_;
  tree.own_.nodes.assign(mapped.nodes_.begin(), mapped.nodes_.end());
  tree.own_.leaves.assign(mapped.leaves_.begin(), mapped.leaves_.end());
  tree.own_.leaf_nodes.assign(mapped.leaf_nodes_.begin(),
                              mapped.leaf_nodes_.end());
  tree.own_.packed.assign(mapped.packed_.begin(), mapped.packed_.end());
  tree.own_.packed_ids.assign(mapped.packed_ids_.begin(),
                              mapped.packed_ids_.end());
  tree.own_.packed_local_idx.assign(mapped.packed_local_idx_.begin(),
                                    mapped.packed_local_idx_.end());
  tree.rebind_owned();
  return tree;
}

KdTree KdTree::open_mmap(const std::string& path, bool verify_sections) {
  auto file = common::MmapFile::open(path);
  const KdTreeHeader header = read_header(*file);
  if (verify_sections) verify_section_crcs(header, *file);

  KdTree tree;
  tree.dims_ = header.dims;
  tree.stats_ = header.stats;
  tree.config_ = header.config;
  tree.mapping_ = std::move(file);
  const std::byte* base = tree.mapping_->data();
  tree.nodes_ = {reinterpret_cast<const HotNode*>(base + header.nodes_off),
                 header.node_count};
  tree.leaves_ = {reinterpret_cast<const LeafInfo*>(base + header.leaves_off),
                  header.leaf_count};
  tree.leaf_nodes_ = {
      reinterpret_cast<const std::uint32_t*>(base + header.leaf_nodes_off),
      header.leaf_count};
  tree.packed_ = {reinterpret_cast<const float*>(base + header.packed_off),
                  header.packed_count};
  tree.packed_ids_ = {
      reinterpret_cast<const std::uint64_t*>(base + header.ids_off),
      header.id_count};
  tree.packed_local_idx_ = {
      reinterpret_cast<const std::uint64_t*>(base + header.local_idx_off),
      header.id_count};
  return tree;
}

}  // namespace panda::core
