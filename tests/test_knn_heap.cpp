// Unit tests for the bounded candidate heap and the top-k merge used
// by the distributed protocol's stage 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/knn_heap.hpp"

namespace panda::core {
namespace {

TEST(KnnHeap, KeepsKSmallest) {
  KnnHeap heap(3);
  for (const float d : {9.0f, 1.0f, 8.0f, 2.0f, 7.0f, 3.0f}) {
    heap.offer(d, static_cast<std::uint64_t>(d));
  }
  const auto sorted = heap.take_sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_FLOAT_EQ(sorted[0].dist2, 1.0f);
  EXPECT_FLOAT_EQ(sorted[1].dist2, 2.0f);
  EXPECT_FLOAT_EQ(sorted[2].dist2, 3.0f);
}

TEST(KnnHeap, BoundIsInfinityUntilFull) {
  KnnHeap heap(2);
  EXPECT_EQ(heap.bound(), std::numeric_limits<float>::infinity());
  heap.offer(5.0f, 0);
  EXPECT_EQ(heap.bound(), std::numeric_limits<float>::infinity());
  heap.offer(3.0f, 1);
  EXPECT_FLOAT_EQ(heap.bound(), 5.0f);
}

TEST(KnnHeap, BoundTightensMonotonically) {
  Rng rng(5);
  KnnHeap heap(8);
  float previous = std::numeric_limits<float>::infinity();
  for (int i = 0; i < 1000; ++i) {
    heap.offer(static_cast<float>(rng.uniform()), static_cast<std::uint64_t>(i));
    ASSERT_LE(heap.bound(), previous);
    previous = heap.bound();
  }
}

TEST(KnnHeap, RejectsCandidatesAtOrBeyondBound) {
  KnnHeap heap(1);
  EXPECT_TRUE(heap.offer(2.0f, 0));
  EXPECT_FALSE(heap.offer(2.0f, 1));  // equal distance, larger id: loses
  EXPECT_FALSE(heap.offer(3.0f, 2));
  EXPECT_TRUE(heap.offer(1.0f, 3));
  const auto sorted = heap.take_sorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].id, 3u);
}

TEST(KnnHeap, TiesBreakTowardSmallerIdRegardlessOfArrivalOrder) {
  // The same equal-distance candidate set must produce the same k
  // survivors for every arrival order — the determinism the
  // distributed merge relies on (DESIGN.md §5).
  std::vector<std::uint64_t> ids{9, 3, 7, 1, 5, 0, 8, 2, 6, 4};
  for (int rotation = 0; rotation < 10; ++rotation) {
    KnnHeap heap(3);
    for (const std::uint64_t id : ids) heap.offer(1.0f, id);
    const auto sorted = heap.take_sorted();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].id, 0u) << "rotation " << rotation;
    EXPECT_EQ(sorted[1].id, 1u) << "rotation " << rotation;
    EXPECT_EQ(sorted[2].id, 2u) << "rotation " << rotation;
    std::rotate(ids.begin(), ids.begin() + 1, ids.end());
  }
}

TEST(KnnHeap, EqualDistanceSmallerIdDisplacesFullHeap) {
  KnnHeap heap(2);
  EXPECT_TRUE(heap.offer(1.0f, 10));
  EXPECT_TRUE(heap.offer(1.0f, 20));
  EXPECT_FLOAT_EQ(heap.bound(), 1.0f);
  EXPECT_TRUE(heap.offer(1.0f, 5));    // displaces id 20
  EXPECT_FALSE(heap.offer(1.0f, 30));  // larger than the worst kept id
  const auto sorted = heap.take_sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 5u);
  EXPECT_EQ(sorted[1].id, 10u);
}

TEST(KnnHeap, AdmitsAgreesWithOffer) {
  // admits() is offer()'s keep-or-refuse decision without the insert:
  // anything while not full, then only candidates below the k-th best
  // under (dist², id) — a tie at the bound passes with a smaller id.
  Rng rng(13);
  KnnHeap heap(4);
  EXPECT_TRUE(heap.admits(std::numeric_limits<float>::infinity(), 99));
  for (int i = 0; i < 500; ++i) {
    const float d = static_cast<float>(rng.uniform_index(8));
    const std::uint64_t id = rng.uniform_index(64);
    const bool predicted = heap.admits(d, id);
    EXPECT_EQ(heap.offer(d, id), predicted) << "offer " << i;
  }
  heap.reset(2);
  heap.offer(1.0f, 10);
  heap.offer(2.0f, 20);
  EXPECT_TRUE(heap.admits(2.0f, 19));
  EXPECT_FALSE(heap.admits(2.0f, 20));
  EXPECT_FALSE(heap.admits(2.5f, 0));
  EXPECT_EQ(heap.size(), 2u);
}

TEST(KnnHeap, NeverExceedsK) {
  Rng rng(6);
  KnnHeap heap(5);
  for (int i = 0; i < 100; ++i) {
    heap.offer(static_cast<float>(rng.uniform()), static_cast<std::uint64_t>(i));
    ASSERT_LE(heap.size(), 5u);
  }
}

TEST(KnnHeap, FewerThanKReturnsAll) {
  KnnHeap heap(10);
  heap.offer(2.0f, 0);
  heap.offer(1.0f, 1);
  const auto sorted = heap.take_sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 1u);
  EXPECT_EQ(sorted[1].id, 0u);
}

TEST(KnnHeap, MatchesSortReference) {
  Rng rng(7);
  for (const std::size_t k : {1u, 2u, 5u, 16u, 64u}) {
    KnnHeap heap(k);
    std::vector<float> all;
    for (int i = 0; i < 500; ++i) {
      const float d = static_cast<float>(rng.uniform());
      all.push_back(d);
      heap.offer(d, static_cast<std::uint64_t>(i));
    }
    std::sort(all.begin(), all.end());
    const auto sorted = heap.take_sorted();
    ASSERT_EQ(sorted.size(), std::min<std::size_t>(k, all.size()));
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_FLOAT_EQ(sorted[i].dist2, all[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KnnHeap, TakeSortedLeavesHeapEmpty) {
  KnnHeap heap(3);
  heap.offer(1.0f, 0);
  heap.take_sorted();
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.bound(), std::numeric_limits<float>::infinity());
}

TEST(KnnHeap, RejectsZeroK) {
  EXPECT_THROW(KnnHeap heap(0), panda::Error);
}

TEST(MergeTopk, MergesSortedListsGlobally) {
  const std::vector<std::vector<Neighbor>> lists{
      {{1.0f, 10}, {4.0f, 11}, {9.0f, 12}},
      {{2.0f, 20}, {3.0f, 21}},
      {},
      {{0.5f, 30}},
  };
  const auto merged = merge_topk(lists, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 30u);
  EXPECT_EQ(merged[1].id, 10u);
  EXPECT_EQ(merged[2].id, 20u);
  EXPECT_EQ(merged[3].id, 21u);
}

TEST(MergeTopk, HandlesFewerCandidatesThanK) {
  const std::vector<std::vector<Neighbor>> lists{{{1.0f, 1}}, {{2.0f, 2}}};
  const auto merged = merge_topk(lists, 10);
  ASSERT_EQ(merged.size(), 2u);
}

TEST(MergeTopk, TiesResolveByIdAcrossLists) {
  // Equal-distance candidates split across lists: the k survivors must
  // be the smallest ids, whichever list they came from and in
  // whichever order the lists are visited.
  std::vector<std::vector<Neighbor>> lists{
      {{0.5f, 40}, {1.0f, 11}, {1.0f, 13}},
      {{1.0f, 10}, {1.0f, 12}},
  };
  for (int permutation = 0; permutation < 2; ++permutation) {
    const auto merged = merge_topk(lists, 3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].id, 40u);  // strictly closer
    EXPECT_EQ(merged[1].id, 10u);
    EXPECT_EQ(merged[2].id, 11u);
    std::swap(lists[0], lists[1]);
  }
}

TEST(MergeTopkInto, StreamingMatchesBatchMerge) {
  Rng rng(11);
  std::vector<std::vector<Neighbor>> lists(5);
  std::uint64_t id = 0;
  for (auto& list : lists) {
    const int n = static_cast<int>(rng.uniform_index(30));
    for (int i = 0; i < n; ++i) {
      // Coarse distances force plenty of ties.
      const float d = static_cast<float>(rng.uniform_index(6));
      list.push_back({d, id++});
    }
    std::sort(list.begin(), list.end());
  }
  const std::size_t k = 8;
  const auto batch = merge_topk(lists, k);
  std::vector<Neighbor> row(k);
  std::vector<Neighbor> scratch;
  std::size_t count = 0;
  for (const auto& list : lists) {
    count = merge_topk_into_row(row, count, list, k, scratch);
  }
  row.resize(count);
  EXPECT_EQ(row, batch);
}

TEST(MergeTopkInto, TruncatesOversizedAccumulator) {
  std::vector<Neighbor> row{{1.0f, 1}, {2.0f, 2}, {3.0f, 3}};
  std::vector<Neighbor> scratch;
  const std::size_t count = merge_topk_into_row(row, row.size(), {}, 2,
                                                scratch);
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(row[0].id, 1u);
  EXPECT_EQ(row[1].id, 2u);
}

TEST(MergeTopk, MatchesFlatSortReference) {
  Rng rng(9);
  std::vector<std::vector<Neighbor>> lists(6);
  std::vector<float> all;
  std::uint64_t id = 0;
  for (auto& list : lists) {
    const int n = static_cast<int>(rng.uniform_index(40));
    for (int i = 0; i < n; ++i) {
      const float d = static_cast<float>(rng.uniform());
      list.push_back({d, id++});
      all.push_back(d);
    }
    std::sort(list.begin(), list.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.dist2 < b.dist2;
              });
  }
  std::sort(all.begin(), all.end());
  const std::size_t k = 12;
  const auto merged = merge_topk(lists, k);
  ASSERT_EQ(merged.size(), std::min(k, all.size()));
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_FLOAT_EQ(merged[i].dist2, all[i]);
  }
}

}  // namespace
}  // namespace panda::core
