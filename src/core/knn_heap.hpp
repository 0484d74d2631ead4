// Bounded candidate set of neighbors (the H of Algorithm 1).
//
// Holds at most k (distance², id) pairs, maintained as a sorted
// bounded array (see offer() for why this beats an actual binary heap
// at the paper's k); the last element is the farthest candidate, so
// bound() — the r′ of the paper — tightens monotonically as better
// candidates arrive. Distances are squared throughout.
//
// Candidates are totally ordered by (dist², id), so among
// equal-distance candidates the smallest id wins deterministically —
// the admitted set never depends on arrival order. Without this, the
// single-node oracle and the distributed merge (which see candidates
// in different orders) disagree on duplicate/tie-heavy data
// (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace panda::core {

struct Neighbor {
  float dist2 = std::numeric_limits<float>::infinity();
  std::uint64_t id = ~std::uint64_t{0};

  friend bool operator==(const Neighbor&, const Neighbor&) = default;

  /// The deterministic total order: ascending (dist², id).
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.id < b.id);
  }
};

/// Multiplicative slack for traversal lower-bound pruning tests
/// (kd-tree descent and global-tree ball overlap). The Arya–Mount
/// incremental bound accumulates rounding along the descent path in a
/// different operation order than the SIMD leaf kernel, so a candidate
/// that ties the pruning bound in exact arithmetic can compute a few
/// ulp either side of it — and a region wrongly pruned at the boundary
/// silently drops equal-distance candidates that win their tie by id.
/// Pruning therefore keeps any region with
/// lower_bound <= bound * kBoundSlack. Candidate *admission* is always
/// decided by kernel-computed distances through KnnHeap::offer, so the
/// slack can only widen traversal, never change a result.
inline constexpr float kBoundSlack =
    1.0f + 64.0f * std::numeric_limits<float>::epsilon();

class KnnHeap {
 public:
  /// The backing storage is reserved for k up front: offer() never
  /// reallocates mid-traversal, and a heap owned by a QueryWorkspace
  /// is allocation-free across queries once warm.
  explicit KnnHeap(std::size_t k) : k_(k) {
    PANDA_CHECK(k >= 1);
    heap_.reserve(k);
  }

  /// Reuses the heap for a new query (possibly with a different k):
  /// clears the candidates and grows the reservation if needed. No
  /// allocator traffic when the backing storage already covers k.
  void reset(std::size_t k) {
    PANDA_CHECK(k >= 1);
    k_ = k;
    heap_.clear();
    reserve(k);
  }

  /// Grows the backing storage to cover k candidates without touching
  /// the current contents (no allocator traffic once it does).
  void reserve(std::size_t k) { heap_.reserve(k); }

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Current pruning bound r′² — the distance of the k-th best
  /// candidate, or +inf while fewer than k candidates are held.
  /// (While not full the array is unsorted, but bound() never reads it
  /// in that state.)
  float bound() const {
    return full() ? heap_.back().dist2
                  : std::numeric_limits<float>::infinity();
  }

  /// True when offer(dist2, id) would keep the candidate: the heap is
  /// not full, or the candidate beats the current k-th best under the
  /// (dist², id) order. A caller with a further filter (a dead-id
  /// list) asks this first, so the filter runs only on would-be
  /// admissions.
  bool admits(float dist2, std::uint64_t id) const {
    return heap_.size() < k_ || Neighbor{dist2, id} < heap_.back();
  }

  /// Offers a candidate; keeps it only if it beats the current k-th
  /// best under the (dist², id) order — equal distances break toward
  /// the smaller id. Returns true if the candidate was admitted.
  ///
  /// The candidate set is maintained as a bounded array rather than a
  /// binary heap: candidates are appended unsorted until the array
  /// fills (one sort at that point), then kept sorted by shift-insert
  /// replacement of the k-th element. For the k the paper's workloads
  /// use (k <= 32) this touches one or two cache lines per admission
  /// and the array is already in output order at extraction time,
  /// which profiles measurably faster than sift-based maintenance
  /// (DESIGN.md §9). The kept set — the k smallest under the total
  /// (dist², id) order — is identical either way.
  bool offer(float dist2, std::uint64_t id) {
    const Neighbor cand{dist2, id};
    if (heap_.size() < k_) {
      heap_.push_back(cand);
      if (heap_.size() == k_) std::sort(heap_.begin(), heap_.end());
      return true;
    }
    if (!(cand < heap_.back())) return false;
    // Shift-insert from the back: late candidates land near the bound,
    // and the outgoing k-th element falls off the end.
    std::size_t pos = heap_.size() - 1;
    while (pos > 0 && cand < heap_[pos - 1]) {
      heap_[pos] = heap_[pos - 1];
      --pos;
    }
    heap_[pos] = cand;
    return true;
  }

  /// Extracts all candidates sorted ascending by (dist², id); the heap
  /// is left empty.
  std::vector<Neighbor> take_sorted() {
    if (heap_.size() < k_) std::sort(heap_.begin(), heap_.end());
    std::vector<Neighbor> out(heap_.begin(), heap_.end());
    heap_.clear();
    return out;
  }

  /// Allocation-free extraction: writes all candidates to `out` (which
  /// must hold at least size() slots) sorted ascending by (dist², id),
  /// leaves the heap empty, and returns the candidate count. The
  /// (dist², id) order is total, so the result is identical to
  /// take_sorted().
  std::size_t extract_sorted_into(Neighbor* out) {
    if (heap_.size() < k_) std::sort(heap_.begin(), heap_.end());
    const std::size_t count = heap_.size();
    std::copy(heap_.begin(), heap_.end(), out);
    heap_.clear();
    return count;
  }

  void clear() { heap_.clear(); }

 private:
  std::size_t k_;
  std::vector<Neighbor> heap_;  // sorted ascending (dist², id)
};

/// Merges any number of ascending-sorted neighbor lists, keeping the k
/// overall nearest under the (dist², id) order (used by the
/// distributed top-k merge, stage 5). Order-independent: the result is
/// the same for any permutation of the input lists.
std::vector<Neighbor> merge_topk(
    const std::vector<std::vector<Neighbor>>& lists, std::size_t k);

/// Streaming merge into a flat-table row: folds the ascending-sorted
/// `incoming` into row[0..count) (also ascending-sorted), keeping the
/// k overall nearest, and writes the merged run back into `row`. The
/// bulk all-KNN engine merges each remote response as it arrives
/// instead of buffering all per-rank lists. `scratch` is caller-owned
/// reusable memory (no steady-state allocations once warm). Returns
/// the new row count (<= k <= row.size()).
std::size_t merge_topk_into_row(std::span<Neighbor> row, std::size_t count,
                                std::span<const Neighbor> incoming,
                                std::size_t k, std::vector<Neighbor>& scratch);

}  // namespace panda::core
