// Minimal binary container for point sets.
//
// The paper stores its science data as HDF5 one-array-per-property;
// HDF5 is not available offline, so PANDA ships a self-describing
// little-endian binary format with the same one-array-per-property
// layout. Format v3 (see data/file_format.hpp) places the id array
// and every coordinate array at 64-byte-aligned offsets so
// MmapStorage can serve the file zero-copy, and checksums the header
// and both sections with CRC32C.
//
// Headers are validated BEFORE any allocation: magic (including the
// byte-swapped endianness case), version, dims bounds, and the
// count/section offsets against the actual file size — a corrupt
// size field produces a panda::Error naming the offending field, not
// a multi-gigabyte allocation attempt.
#pragma once

#include <string>

#include "data/point_set.hpp"

namespace panda::data {

/// Writes `points` to `path` in format v3, replacing any existing
/// file atomically. Throws panda::Error on I/O failure.
void save_points(const PointSet& points, const std::string& path);

/// Reads a PointSet written by save_points: a copy out of a fully
/// verified MmapStorage. Throws panda::Error on I/O failure, a
/// checksum or header mismatch, or any version other than 3.
PointSet load_points(const std::string& path);

}  // namespace panda::data
