// On-disk layout of the PANDA point-file format (data/io.hpp).
//
// Shared between the writer (io.cpp) and the one parser (MmapStorage
// in storage.cpp, which load_points copies out of); nothing outside
// src/data should need these definitions.
//
// One version is readable: 3, the checksummed aligned layout. A
// 128-byte header block is followed by the id array and one array per
// dimension, each at a 64-byte-aligned offset recorded in the header
// (so a mapped file serves SIMD-aligned spans in place), plus CRC32C
// integrity: a header CRC, an ids-section CRC, and a coords CRC over
// the live bytes of every dimension array (padding excluded). See
// DESIGN.md §11.1, §13. Every other version is refused with one
// "re-save" diagnostic.
//
// All integers little-endian; a byte-swapped magic is diagnosed as an
// endianness mismatch rather than "not a point file".
#pragma once

#include <cstddef>
#include <cstdint>

namespace panda::data::detail {

inline constexpr std::uint64_t kPointsMagic = 0x50414e4441505453ULL;
inline constexpr std::uint32_t kPointsVersion = 3;

/// Upper bound on believable dimensionality: a corrupt header must
/// fail this check rather than drive a huge allocation.
inline constexpr std::uint32_t kMaxPointDims = 4096;

/// The header. `ids_crc` covers count * 8 id bytes; `coords_crc`
/// covers the live count * 4 bytes of each dimension array, chained
/// dim 0 → dims-1 (stride padding excluded). `header_crc` covers the
/// first sizeof(PointsHeader) bytes with the header_crc field itself
/// zeroed. The file reserves kPointsHeaderSpan bytes for the header
/// (zero-padded) so the id array starts 64-aligned.
struct PointsHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t dims;
  std::uint64_t count;
  std::uint64_t ids_off;            // 64-aligned
  std::uint64_t coords_off;         // 64-aligned; dim d at coords_off +
                                    // d * coord_stride_bytes
  std::uint64_t coord_stride_bytes; // 64-aligned, >= count * 4
  std::uint64_t file_size;          // total bytes, for validation
  std::uint32_t header_crc;
  std::uint32_t ids_crc;
  std::uint32_t coords_crc;
  std::uint32_t reserved;
};
inline constexpr std::size_t kPointsHeaderSpan = 128;
static_assert(sizeof(PointsHeader) <= kPointsHeaderSpan);

inline constexpr std::uint64_t align64(std::uint64_t x) {
  return (x + 63) & ~std::uint64_t{63};
}

inline constexpr std::uint64_t byteswap64(std::uint64_t x) {
  return __builtin_bswap64(x);
}

}  // namespace panda::data::detail
