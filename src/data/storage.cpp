#include "data/storage.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "data/file_format.hpp"

namespace panda::data {

// ---------------------------------------------------------------------
// PointStorage defaults
// ---------------------------------------------------------------------

void PointStorage::read_chunk(std::size_t chunk, PointSet& out,
                              std::vector<std::uint64_t>* positions) const {
  PANDA_CHECK_MSG(chunk == 0, "resident storage has exactly one chunk");
  const std::uint64_t n = size();
  out = PointSet(dims());
  out.resize(n);
  for (std::size_t d = 0; d < dims(); ++d) {
    const auto src = coordinate(d);
    auto dst = out.coordinate(d);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const auto src_ids = ids();
  for (std::uint64_t i = 0; i < n; ++i) out.set_id(i, src_ids[i]);
  if (positions != nullptr) {
    positions->resize(n);
    for (std::uint64_t i = 0; i < n; ++i) (*positions)[i] = i;
  }
}

PointSet PointStorage::to_point_set() const {
  PointSet all(dims());
  all.reserve(size());
  PointSet chunk(dims());
  for (std::size_t c = 0; c < chunk_count(); ++c) {
    read_chunk(c, chunk, nullptr);
    all.append(chunk);
  }
  return all;
}

void require_finite(const PointStorage& points, std::string_view caller) {
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const std::span<const float> column = points.coordinate(d);
    for (std::size_t p = 0; p < column.size(); ++p) {
      if (!std::isfinite(column[p])) {
        throw Error(std::string(caller) + ": point id " +
                    std::to_string(points.id(p)) +
                    " has a non-finite coordinate in dimension " +
                    std::to_string(d));
      }
    }
  }
}

// ---------------------------------------------------------------------
// MmapStorage
// ---------------------------------------------------------------------

namespace {

/// Copies and validates the header of a mapped point file: identity
/// (magic, endianness, version), then every structural field against
/// the file size — all before any span is formed — and last the
/// header CRC, so a corrupted named field still gets its named
/// diagnostic. A CRC is not a MAC (a crafted header recomputes it),
/// so the structural checks alone must keep every section inside the
/// file: each count is bounded by the file size before it is
/// multiplied, and each offset + size is checked without wrapping.
detail::PointsHeader read_points_header(const common::MmapFile& file) {
  using namespace detail;
  const std::string& path = file.path();
  const std::uint64_t size = file.size();
  PointsHeader h{};
  if (size > 0) {
    std::memcpy(&h, file.data(), std::min<std::uint64_t>(size, sizeof(h)));
  }
  // Magic and version sit at the same offsets in every revision, so a
  // short file from another revision is refused by version rather
  // than as truncated.
  const bool identified =
      size >= offsetof(PointsHeader, dims) && h.magic == kPointsMagic;
  PANDA_CHECK_MSG(!identified || h.version == kPointsVersion,
                  "unsupported point file version "
                      << h.version << " (expected " << kPointsVersion
                      << "); re-save it with save_points: " << path);
  PANDA_CHECK_MSG(size >= kPointsHeaderSpan,
                  "point file too small for a header: " << path);
  PANDA_CHECK_MSG(h.magic != byteswap64(kPointsMagic),
                  "point file has byte-swapped magic (endianness "
                  "mismatch — file written on a big-endian host?): "
                      << path);
  PANDA_CHECK_MSG(h.magic == kPointsMagic,
                  "not a PANDA point file: " << path);
  PANDA_CHECK_MSG(h.dims >= 1 && h.dims <= kMaxPointDims,
                  "point file header field 'dims' out of bounds ("
                      << h.dims << ", expected 1.." << kMaxPointDims
                      << "): " << path);
  PANDA_CHECK_MSG(h.file_size == size,
                  "point file header field 'file_size' inconsistent ("
                      << h.file_size << " recorded, " << size
                      << " actual): " << path);
  PANDA_CHECK_MSG(h.count <= size / sizeof(std::uint64_t),
                  "point file header field 'count' out of bounds ("
                      << h.count << " points cannot fit a " << size
                      << "-byte file): " << path);
  PANDA_CHECK_MSG(h.coord_stride_bytes <= size / h.dims,
                  "point file header field 'coord_stride_bytes' out of "
                  "bounds ("
                      << h.coord_stride_bytes << " x " << h.dims
                      << " dims exceeds the " << size << "-byte file): "
                      << path);
  PANDA_CHECK_MSG(h.ids_off % 64 == 0 && h.coords_off % 64 == 0 &&
                      h.coord_stride_bytes % 64 == 0,
                  "point file header has misaligned section offsets: "
                      << path);
  PANDA_CHECK_MSG(h.ids_off >= kPointsHeaderSpan &&
                      h.ids_off <= h.coords_off &&
                      h.count <= (h.coords_off - h.ids_off) /
                                     sizeof(std::uint64_t),
                  "point file header field 'ids_off' out of bounds ("
                      << h.ids_off << "): " << path);
  PANDA_CHECK_MSG(h.coords_off <= size &&
                      h.dims * h.coord_stride_bytes <= size - h.coords_off,
                  "point file header field 'coords_off' out of bounds ("
                      << h.coords_off << "): " << path);
  PANDA_CHECK_MSG(h.coord_stride_bytes >= h.count * sizeof(float),
                  "point file header field 'count' inconsistent with "
                  "section layout: "
                      << path);
  PointsHeader copy = h;
  copy.header_crc = 0;
  const std::uint32_t computed = common::crc32c(&copy, sizeof(copy));
  PANDA_CHECK_MSG(computed == h.header_crc,
                  "point file header checksum mismatch (stored 0x"
                      << std::hex << h.header_crc << ", computed 0x"
                      << computed << std::dec << "): " << path);
  return h;
}

}  // namespace

MmapStorage::MmapStorage(const std::string& path, bool verify_sections)
    : file_(common::MmapFile::open(path)) {
  const detail::PointsHeader header = read_points_header(*file_);
  dims_ = header.dims;
  count_ = header.count;
  const std::byte* base = file_->data();
  ids_ = reinterpret_cast<const std::uint64_t*>(base + header.ids_off);
  coords_.resize(dims_);
  for (std::size_t d = 0; d < dims_; ++d) {
    coords_[d] = reinterpret_cast<const float*>(
        base + header.coords_off + d * header.coord_stride_bytes);
  }

  if (verify_sections) {
    const std::uint32_t ids_crc =
        common::crc32c(ids_, count_ * sizeof(std::uint64_t));
    PANDA_CHECK_MSG(ids_crc == header.ids_crc,
                    "point file section 'ids' checksum mismatch (stored 0x"
                        << std::hex << header.ids_crc << ", computed 0x"
                        << ids_crc << std::dec << "): " << path);
    std::uint32_t coords_crc = 0;
    for (std::size_t d = 0; d < dims_; ++d) {
      coords_crc =
          common::crc32c(coords_[d], count_ * sizeof(float), coords_crc);
    }
    PANDA_CHECK_MSG(
        coords_crc == header.coords_crc,
        "point file section 'coords' checksum mismatch (stored 0x"
            << std::hex << header.coords_crc << ", computed 0x" << coords_crc
            << std::dec << "): " << path);
  }
}

std::span<const float> MmapStorage::coordinate(std::size_t d) const {
  PANDA_ASSERT(d < dims_);
  return {coords_[d], count_};
}

// ---------------------------------------------------------------------
// ChunkedStorage
// ---------------------------------------------------------------------

struct ChunkedStorage::Writer {
  std::ofstream out;
};

namespace {

/// Spill record: id, global-order position, then dims floats.
constexpr std::uint64_t spill_record_bytes(std::size_t dims) {
  return 2 * sizeof(std::uint64_t) + dims * sizeof(float);
}

}  // namespace

ChunkedStorage::ChunkedStorage(std::string dir, std::size_t dims,
                               std::size_t chunks)
    : dir_(std::move(dir)), dims_(dims), counts_(chunks, 0) {
  PANDA_CHECK_MSG(dims >= 1, "ChunkedStorage needs at least one dimension");
  PANDA_CHECK_MSG(chunks >= 1, "ChunkedStorage needs at least one chunk");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PANDA_CHECK_MSG(!ec, "cannot create spill directory " << dir_ << ": "
                                                        << ec.message());
  // A throw below leaves no constructed object (the destructor will
  // never run), so clean up the partially created spill dir here —
  // otherwise a failed build leaks it onto disk.
  try {
    writers_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      PANDA_FAILPOINT("spill.open_chunk");
      auto w = std::make_unique<Writer>();
      w->out.open(chunk_path(c), std::ios::binary | std::ios::trunc);
      PANDA_CHECK_MSG(w->out.good(),
                      "cannot open spill chunk for writing: " << chunk_path(c));
      writers_.push_back(std::move(w));
    }
  } catch (...) {
    writers_.clear();
    for (std::size_t c = 0; c < chunks; ++c) {
      std::filesystem::remove(chunk_path(c), ec);
    }
    std::filesystem::remove(dir_, ec);
    throw;
  }
}

ChunkedStorage::~ChunkedStorage() {
  writers_.clear();  // close before unlink
  std::error_code ec;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    std::filesystem::remove(chunk_path(c), ec);
  }
  std::filesystem::remove(dir_, ec);  // only removes an empty directory
}

std::string ChunkedStorage::chunk_path(std::size_t chunk) const {
  return dir_ + "/chunk" + std::to_string(chunk) + ".spill";
}

std::span<const float> ChunkedStorage::coordinate(std::size_t) const {
  throw Error(
      "ChunkedStorage is not resident: stream it with read_chunk or build "
      "with KdTree::build_external");
}

std::span<const std::uint64_t> ChunkedStorage::ids() const {
  throw Error(
      "ChunkedStorage is not resident: stream it with read_chunk or build "
      "with KdTree::build_external");
}

void ChunkedStorage::append(std::size_t chunk, const PointSet& points,
                            std::span<const std::uint64_t> positions) {
  PANDA_CHECK_MSG(chunk < writers_.size(), "spill chunk out of range");
  PANDA_CHECK_MSG(points.dims() == dims_, "spill dims mismatch");
  PANDA_CHECK_MSG(positions.size() == points.size(),
                  "one position per spilled point required");
  Writer& w = *writers_[chunk];
  PANDA_CHECK_MSG(w.out.is_open(), "spill chunk already finished");
  const std::uint64_t record = spill_record_bytes(dims_);
  std::vector<char> buffer(record * points.size());
  char* p = buffer.data();
  std::vector<float> coords(dims_);
  for (std::uint64_t i = 0; i < points.size(); ++i) {
    const std::uint64_t id = points.id(i);
    const std::uint64_t pos = positions[i];
    std::memcpy(p, &id, sizeof(id));
    std::memcpy(p + sizeof(id), &pos, sizeof(pos));
    points.copy_point(i, coords.data());
    std::memcpy(p + 2 * sizeof(std::uint64_t), coords.data(),
                dims_ * sizeof(float));
    p += record;
  }
  PANDA_FAILPOINT("spill.write");
  w.out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  PANDA_CHECK_MSG(w.out.good(), "spill write failed: " << chunk_path(chunk));
  counts_[chunk] += points.size();
  total_ += points.size();
}

void ChunkedStorage::finish_writing() {
  for (std::size_t c = 0; c < writers_.size(); ++c) {
    Writer& w = *writers_[c];
    if (!w.out.is_open()) continue;
    w.out.flush();
    PANDA_CHECK_MSG(w.out.good(), "spill flush failed: " << chunk_path(c));
    w.out.close();
  }
}

void ChunkedStorage::read_chunk(std::size_t chunk, PointSet& out,
                                std::vector<std::uint64_t>* positions) const {
  PANDA_CHECK_MSG(chunk < counts_.size(), "spill chunk out of range");
  std::ifstream in(chunk_path(chunk), std::ios::binary);
  PANDA_CHECK_MSG(in.good(),
                  "cannot open spill chunk for reading: " << chunk_path(chunk));
  const std::uint64_t n = counts_[chunk];
  const std::uint64_t record = spill_record_bytes(dims_);
  std::vector<char> buffer(record * n);
  in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  PANDA_CHECK_MSG(in.good() || n == 0,
                  "truncated spill chunk: " << chunk_path(chunk));

  out = PointSet(dims_);
  out.resize(n);
  if (positions != nullptr) positions->resize(n);
  const char* p = buffer.data();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    std::uint64_t pos = 0;
    std::memcpy(&id, p, sizeof(id));
    std::memcpy(&pos, p + sizeof(id), sizeof(pos));
    out.set_id(i, id);
    if (positions != nullptr) (*positions)[i] = pos;
    const char* c = p + 2 * sizeof(std::uint64_t);
    for (std::size_t d = 0; d < dims_; ++d) {
      float v = 0.0f;
      std::memcpy(&v, c + d * sizeof(float), sizeof(float));
      out.set(i, d, v);
    }
    p += record;
  }
}

}  // namespace panda::data
