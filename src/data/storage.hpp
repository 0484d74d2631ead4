// The point-storage view (DESIGN.md §11).
//
// Every kernel in PANDA used to take `const PointSet&` — which
// hard-wired the assumption that the indexed data is an owned,
// in-RAM vector. PointStorage is the abstraction that breaks that
// assumption: a read-only view of an SoA point collection (dims,
// count, one contiguous float span per dimension, a global-id span)
// with three concrete backends:
//
//   OwnedStorage   — owns a PointSet; the classical in-RAM case.
//   MmapStorage    — zero-copy spans into a memory-mapped aligned
//                    point file (data::io format v3); opening a
//                    100 GB dataset costs one mmap, pages fault in
//                    as kernels touch them.
//   ChunkedStorage — a build-time spill file: points partitioned
//                    into rank-sized on-disk chunks, none resident.
//                    The out-of-core build (KdTree::build_external)
//                    streams through it one chunk at a time.
//
// Residency contract: resident() storages serve coordinate()/ids()
// spans that stay valid for the storage's lifetime — in-RAM kernels
// (KdTree::build, brute force) consume exactly that. Non-resident
// storages instead expose the chunk protocol (chunk_count /
// read_chunk); calling coordinate() on one throws. Resident storages
// also satisfy the chunk protocol (one chunk, a materializing copy),
// so streaming consumers are written once against chunks and work on
// every backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.hpp"
#include "data/point_set.hpp"

namespace panda::data {

class PointStorage {
 public:
  virtual ~PointStorage() = default;

  virtual std::size_t dims() const = 0;
  virtual std::uint64_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// True when the whole collection is addressable through
  /// coordinate()/ids() spans (owned or mapped memory).
  virtual bool resident() const { return true; }

  /// All points' d-th coordinates, contiguous. Resident storages
  /// only; spans stay valid for the storage's lifetime.
  virtual std::span<const float> coordinate(std::size_t d) const = 0;
  /// Global id per point, contiguous. Resident storages only.
  virtual std::span<const std::uint64_t> ids() const = 0;

  // -------------------------------------------------------------------
  // Chunk protocol — the streaming access path every backend supports.
  // -------------------------------------------------------------------

  /// Number of on-disk chunks; resident storages report 1.
  virtual std::size_t chunk_count() const { return 1; }

  /// Materializes chunk `chunk` into `out` (replacing its contents).
  /// `positions`, when non-null, receives each materialized point's
  /// position in the storage's global order [0, size()) — the key the
  /// external build uses to keep self-KNN row addressing identical to
  /// an in-RAM build. The default implementation copies the resident
  /// spans (chunk 0 = everything).
  virtual void read_chunk(std::size_t chunk, PointSet& out,
                          std::vector<std::uint64_t>* positions) const;

  // -------------------------------------------------------------------
  // Conveniences over the resident spans.
  // -------------------------------------------------------------------

  float at(std::uint64_t point, std::size_t d) const {
    return coordinate(d)[point];
  }
  std::uint64_t id(std::uint64_t point) const { return ids()[point]; }

  /// Copies point i into out[0..dims()).
  void copy_point(std::uint64_t point, float* out) const {
    for (std::size_t d = 0; d < dims(); ++d) out[d] = coordinate(d)[point];
  }

  /// Materializes the whole storage as an owned PointSet (streams the
  /// chunk protocol, so it works on non-resident storages too —
  /// provided the result fits in RAM).
  PointSet to_point_set() const;
};

/// Throws panda::Error when a coordinate is NaN or infinite, naming
/// the first such point's id and dimension after `caller`. Such a
/// coordinate breaks the (dist², id) order and the median splits every
/// tree is built on, so the boundaries that take in points (Index::build,
/// MutableIndex::insert) refuse it. Reads the resident spans:
/// `points` must be resident().
void require_finite(const PointStorage& points, std::string_view caller);

/// Non-owning resident view over an existing PointSet. The adapter
/// behind every `const PointSet&` compatibility entry point; the
/// viewed set must outlive the view.
class PointSetView final : public PointStorage {
 public:
  explicit PointSetView(const PointSet& set) : set_(&set) {}

  std::size_t dims() const override { return set_->dims(); }
  std::uint64_t size() const override { return set_->size(); }
  std::span<const float> coordinate(std::size_t d) const override {
    return set_->coordinate(d);
  }
  std::span<const std::uint64_t> ids() const override { return set_->ids(); }

 private:
  const PointSet* set_;
};

/// Owns its points — today's AlignedVector-backed PointSet behind the
/// view interface.
class OwnedStorage final : public PointStorage {
 public:
  explicit OwnedStorage(PointSet set) : set_(std::move(set)) {}

  std::size_t dims() const override { return set_.dims(); }
  std::uint64_t size() const override { return set_.size(); }
  std::span<const float> coordinate(std::size_t d) const override {
    return set_.coordinate(d);
  }
  std::span<const std::uint64_t> ids() const override { return set_.ids(); }

  const PointSet& points() const { return set_; }

 private:
  PointSet set_;
};

/// Zero-copy view over an aligned point file (data::io format v3):
/// the id array and every per-dimension coordinate array sit at
/// 64-byte-aligned offsets, so the spans point straight into the map.
/// The one point-file parser — load_points copies out of it. Every
/// other version is refused with a re-save hint.
class MmapStorage final : public PointStorage {
 public:
  /// Maps `path` and validates its header (magic, version, dims and
  /// count bounds, section offsets/alignment against the file size,
  /// header CRC), plus the id/coord section CRCs unless
  /// `verify_sections` is false. Throws panda::Error naming the
  /// offending field or section on any mismatch; no span is formed
  /// before the header passes.
  explicit MmapStorage(const std::string& path, bool verify_sections = true);

  std::size_t dims() const override { return dims_; }
  std::uint64_t size() const override { return count_; }
  std::span<const float> coordinate(std::size_t d) const override;
  std::span<const std::uint64_t> ids() const override {
    return {ids_, count_};
  }

  const std::string& path() const { return file_->path(); }

 private:
  std::shared_ptr<common::MmapFile> file_;
  std::size_t dims_ = 0;
  std::uint64_t count_ = 0;
  const std::uint64_t* ids_ = nullptr;
  std::vector<const float*> coords_;  // one pointer per dimension
};

/// Build-time spill storage: a directory of append-only chunk files,
/// each holding (id, position, coords) records. Nothing is resident —
/// the writer appends routed points chunk by chunk, the reader
/// materializes one chunk at a time. Spill files are scratch: the
/// destructor removes them.
class ChunkedStorage final : public PointStorage {
 public:
  /// Creates `chunks` empty spill files under `dir` (created if
  /// missing). Throws panda::Error when the directory or files cannot
  /// be created.
  ChunkedStorage(std::string dir, std::size_t dims, std::size_t chunks);
  ~ChunkedStorage() override;

  ChunkedStorage(const ChunkedStorage&) = delete;
  ChunkedStorage& operator=(const ChunkedStorage&) = delete;

  std::size_t dims() const override { return dims_; }
  std::uint64_t size() const override { return total_; }
  bool resident() const override { return false; }
  /// Non-resident: always throws panda::Error.
  std::span<const float> coordinate(std::size_t d) const override;
  /// Non-resident: always throws panda::Error.
  std::span<const std::uint64_t> ids() const override;

  std::size_t chunk_count() const override { return counts_.size(); }
  std::uint64_t chunk_size(std::size_t chunk) const {
    return counts_[chunk];
  }
  void read_chunk(std::size_t chunk, PointSet& out,
                  std::vector<std::uint64_t>* positions) const override;

  /// Appends `points` to chunk `chunk`. `positions` gives each
  /// point's global-order position (must match points.size()); it is
  /// carried through read_chunk so downstream consumers can address
  /// results by the original order.
  void append(std::size_t chunk, const PointSet& points,
              std::span<const std::uint64_t> positions);

  /// Flushes all chunk writers; call once after the last append and
  /// before the first read_chunk.
  void finish_writing();

 private:
  std::string chunk_path(std::size_t chunk) const;

  std::string dir_;
  std::size_t dims_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
  struct Writer;
  std::vector<std::unique_ptr<Writer>> writers_;
};

}  // namespace panda::data
