// Morton schedule of a KNN batch (see batch_order.hpp).
#include "core/batch_order.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>

#include "core/id_set.hpp"
#include "core/kdtree.hpp"

namespace panda::core {

namespace {

/// Key bits: a key and a 32-bit caller position share one entry.
constexpr std::size_t kKeyBits = 30;

}  // namespace

std::span<const std::uint64_t> order_knn_batch(const data::PointSet& queries,
                                               BatchWorkspace& ws) {
  const std::uint64_t n = queries.size();
  if (n < kOrderedKnnBatch || n > kOrderPositionMask + 1) return {};
  const std::size_t key_dims = std::min(queries.dims(), kKeyBits);
  // At most 24 bits a dim, so every cell index is an exact float.
  const std::size_t bits = std::min<std::size_t>(
      kKeyBits / key_dims, std::numeric_limits<float>::digits);
  const float top_cell = static_cast<float>((1u << bits) - 1);
  // spread[j][c]: byte j of a cell index, its bits key_dims apart at
  // their key positions (cell bit b at key bit b * key_dims). A cell has
  // at most 24 bits, so three lookups interleave any of them.
  std::array<std::array<std::uint64_t, 256>, 3> spread{};
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::uint32_t c = 0; c < 256; ++c) {
      for (std::size_t b = 0; b < 8 && j * 8 + b < bits; ++b) {
        spread[j][c] |= std::uint64_t{(c >> b) & 1u}
                        << ((j * 8 + b) * key_dims);
      }
    }
  }

  ws.order.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) ws.order[i] = i;
  for (std::size_t d = 0; d < key_dims; ++d) {
    const std::span<const float> column = queries.coordinate(d);
    // The batch's extent; std::min/max keep their first argument
    // against a NaN.
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (const float v : column) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // 2^bits cells over the extent. A zero-width extent, an infinite
    // one (an infinite coordinate, or a finite range past FLT_MAX) and
    // an all-NaN column scale by 0: the whole dim keys on cell 0.
    const float range = hi - lo;
    const float scale = range > 0.0f &&
                                range <= std::numeric_limits<float>::max()
                            ? (top_cell + 1.0f) / range
                            : 0.0f;
    const std::size_t shift = 32 + key_dims - 1 - d;
    for (std::uint64_t i = 0; i < n; ++i) {
      // NaN and anything below 0 go to cell 0, +Inf and a product
      // rounded past the top to the top cell: only [0, top_cell]
      // reaches the cast.
      const float t = (column[i] - lo) * scale;
      const auto cell =
          static_cast<std::uint32_t>(t >= 0.0f ? std::min(t, top_cell) : 0.0f);
      const std::uint64_t key = spread[0][cell & 0xffu] |
                                spread[1][(cell >> 8) & 0xffu] |
                                spread[2][cell >> 16];
      ws.order[i] |= key << shift;
    }
  }
  radix_sort_by_key(ws.order, ws.order_scratch,
                    [](std::uint64_t entry) { return entry >> 32; });
  return ws.order;
}

}  // namespace panda::core
