#include "core/knn_heap.hpp"

#include <algorithm>

namespace panda::core {

std::vector<Neighbor> merge_topk(const std::vector<std::vector<Neighbor>>& lists,
                                 std::size_t k) {
  KnnHeap heap(k);
  for (const auto& list : lists) {
    for (const Neighbor& n : list) {
      // Lists are sorted: once a list's entry is strictly beyond the
      // bound, the rest of that list is too. Entries *at* the bound
      // must still be offered — an equal-distance candidate with a
      // smaller id displaces the current k-th.
      if (heap.full() && n.dist2 > heap.bound()) break;
      heap.offer(n.dist2, n.id);
    }
  }
  return heap.take_sorted();
}

std::size_t merge_topk_into_row(std::span<Neighbor> row, std::size_t count,
                                std::span<const Neighbor> incoming,
                                std::size_t k, std::vector<Neighbor>& scratch) {
  PANDA_ASSERT(count <= row.size());
  if (incoming.empty()) return std::min(count, k);
  scratch.clear();
  std::size_t a = 0;
  std::size_t b = 0;
  while (scratch.size() < k && (a < count || b < incoming.size())) {
    const bool take_row =
        b == incoming.size() || (a < count && row[a] < incoming[b]);
    scratch.push_back(take_row ? row[a++] : incoming[b++]);
  }
  std::copy(scratch.begin(), scratch.end(), row.begin());
  return scratch.size();
}

}  // namespace panda::core
