// Byte-level message packing for the distributed query protocols.
//
// Query forwards, remote-KNN requests, and responses mix ids, floats,
// and variable-length neighbor lists; packing them into one byte
// buffer per message keeps every exchange a single send (or one
// alltoallv row) and sidesteps multi-message framing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "core/knn_heap.hpp"

namespace panda::dist::detail {

class WireWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void put_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + values.size_bytes());
    if (!values.empty()) {
      std::memcpy(buffer_.data() + offset, values.data(),
                  values.size_bytes());
    }
  }

  bool empty() const { return buffer_.empty(); }
  std::span<const std::byte> bytes() const { return buffer_; }
  std::vector<std::byte> take() { return std::move(buffer_); }
  /// Empties the payload and keeps its capacity, so a writer reused
  /// message after message stops allocating once it has held the
  /// largest.
  void clear() { buffer_.clear(); }

 private:
  std::vector<std::byte> buffer_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    PANDA_CHECK_MSG(position_ + sizeof(T) <= bytes_.size(),
                    "wire payload truncated");
    T value;
    std::memcpy(&value, bytes_.data() + position_, sizeof(T));
    position_ += sizeof(T);
    return value;
  }

  template <typename T>
  void get_into(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    PANDA_CHECK_MSG(position_ + out.size_bytes() <= bytes_.size(),
                    "wire payload truncated");
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + position_, out.size_bytes());
    }
    position_ += out.size_bytes();
  }

  bool done() const { return position_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - position_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t position_ = 0;
};

// Neighbor-list framing shared by the KNN and radius protocols: a u64
// count followed by the Neighbor span. Both sides of every exchange
// must use this pair so the layout cannot desynchronize.

inline void append_neighbors(WireWriter& writer,
                             std::span<const core::Neighbor> neighbors) {
  writer.put<std::uint64_t>(neighbors.size());
  writer.put_span(neighbors);
}

inline void append_neighbors(WireWriter& writer,
                             const std::vector<core::Neighbor>& neighbors) {
  append_neighbors(writer, std::span<const core::Neighbor>(neighbors));
}

inline std::vector<core::Neighbor> read_neighbors(WireReader& reader) {
  const auto count = reader.get<std::uint64_t>();
  // Validate against the payload before sizing the vector: a corrupt
  // count must surface as the truncation diagnostic, not as a giant
  // allocation attempt.
  PANDA_CHECK_MSG(count <= reader.remaining() / sizeof(core::Neighbor),
                  "wire payload truncated");
  std::vector<core::Neighbor> neighbors(count);
  reader.get_into(std::span<core::Neighbor>(neighbors));
  return neighbors;
}

/// Reads one framed list into the front of `out` (a top-k table slot)
/// and returns its count.
inline std::size_t read_neighbors_into(WireReader& reader,
                                       std::span<core::Neighbor> out) {
  const auto count = reader.get<std::uint64_t>();
  PANDA_CHECK_MSG(count <= out.size(), "wire neighbor list exceeds its row");
  reader.get_into(out.first(count));
  return count;
}

// Remote-KNN request record of stages 3-4 (dist/all_knn.hpp, which
// both KNN engines run): every ball from one source rank that
// overlaps one destination ships as a run of these records inside a
// single packed message (one alltoallv row or one mailbox send), so
// the stage-3/4 message count is bounded by rank pairs, not by
// (query x fanout) pairs. The (radius2, bound_id) pair is the full
// pruning bound of query_sq: remote candidates must be strictly below
// it in the (dist^2, id) tie order.

struct KnnRequest {
  std::uint64_t seq = 0;       // query identifier at the source rank
  float radius2 = 0.0f;        // r'^2, +inf while the owner holds < k
  std::uint64_t bound_id = 0;  // tie id of the owner's k-th candidate
};

inline void append_knn_request(WireWriter& writer, const KnnRequest& request,
                               std::span<const float> coords) {
  writer.put<std::uint64_t>(request.seq);
  writer.put<float>(request.radius2);
  writer.put<std::uint64_t>(request.bound_id);
  writer.put_span(coords);
}

/// Reads one request record; the query coordinates land in `coords`
/// (sized dims by the caller).
inline KnnRequest read_knn_request(WireReader& reader,
                                   std::span<float> coords) {
  KnnRequest request;
  request.seq = reader.get<std::uint64_t>();
  request.radius2 = reader.get<float>();
  request.bound_id = reader.get<std::uint64_t>();
  reader.get_into(coords);
  return request;
}

}  // namespace panda::dist::detail
