// Structure-of-arrays point container.
//
// All PANDA data (datasets, query sets, redistribution buffers) lives
// in PointSet: runtime-dimensional float coordinates stored one
// contiguous aligned array per dimension, plus a 64-bit global id per
// point. Global ids survive redistribution and tree reordering so that
// distributed KNN answers can be compared index-for-index against a
// single-node brute-force oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace panda::data {

class PointSet {
 public:
  PointSet() = default;
  explicit PointSet(std::size_t dims);
  PointSet(std::size_t dims, std::size_t count);

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// All points' d-th coordinates.
  std::span<const float> coordinate(std::size_t d) const;
  std::span<float> coordinate(std::size_t d);

  float at(std::size_t point, std::size_t d) const {
    return coords_[d][point];
  }
  void set(std::size_t point, std::size_t d, float value) {
    coords_[d][point] = value;
  }

  std::uint64_t id(std::size_t point) const { return ids_[point]; }
  void set_id(std::size_t point, std::uint64_t id) { ids_[point] = id; }
  std::span<const std::uint64_t> ids() const { return ids_; }

  /// Copies point i into out[0..dims). out must hold dims() floats.
  void copy_point(std::size_t point, float* out) const;

  /// Hints point i's coordinates into cache ahead of a copy_point (one
  /// line per dimension column).
  void prefetch_point(std::size_t point) const {
    for (const auto& column : coords_) {
      __builtin_prefetch(column.data() + point);
    }
  }

  /// Appends one point; returns its index.
  std::size_t push_point(std::span<const float> values, std::uint64_t id);

  /// Appends every point of `other` (dims must match).
  void append(const PointSet& other);

  /// Appends the selected points of `other`.
  void append(const PointSet& other, std::span<const std::uint64_t> indices);

  /// New PointSet containing the selected points in order.
  PointSet extract(std::span<const std::uint64_t> indices) const;

  void resize(std::size_t count);
  void reserve(std::size_t count);
  void clear();

  /// Axis-aligned bounding box: per-dimension [min, max]. Returns
  /// empty vectors for an empty set.
  struct Box {
    std::vector<float> lo;
    std::vector<float> hi;
  };
  Box bounding_box() const;

  /// Flat wire format for communication: per point, dims floats
  /// followed by the id packed as two floats' worth of bytes is
  /// error-prone, so the wire format is a separate struct; see
  /// pack()/unpack().
  std::vector<float> pack_coords(std::span<const std::uint64_t> indices) const;

 private:
  std::size_t dims_ = 0;
  std::size_t count_ = 0;
  std::vector<AlignedVector<float>> coords_;
  std::vector<std::uint64_t> ids_;
};

}  // namespace panda::data
