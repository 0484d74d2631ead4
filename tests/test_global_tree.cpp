// Tests for the global kd-tree: record reconstruction, owner lookup
// totality/consistency, ball intersection correctness, and geometry of
// the rank regions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/global_tree.hpp"

namespace panda::dist {
namespace {

/// A 4-rank tree over 2-D space: root splits on x<0.5; the left group
/// splits on y<0.5 into ranks {r0, r1}; the right group splits on
/// y<0.3 into ranks {r2, r3}.
std::vector<SplitRecord> four_rank_records() {
  return {
      {0, 4, 2, 0, 0.5f},
      {0, 2, 1, 1, 0.5f},
      {2, 4, 3, 1, 0.3f},
  };
}

/// ranks_in_ball into fresh buffers.
std::vector<int> ranks_in_ball(const GlobalTree& tree,
                               std::span<const float> center,
                               float radius2) {
  std::vector<int> ranks;
  std::vector<float> offsets;
  tree.ranks_in_ball(center, radius2, ranks, offsets);
  return ranks;
}

TEST(GlobalTree, SingleRankIsTrivial) {
  const GlobalTree tree = GlobalTree::from_records(1, 3, {});
  EXPECT_EQ(tree.ranks(), 1);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.2f, 0.3f}), 0);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(GlobalTree, OwnerLookupFollowsSplits) {
  const auto records = four_rank_records();
  const GlobalTree tree = GlobalTree::from_records(4, 2, records);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.1f}), 0);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.9f}), 1);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.9f, 0.1f}), 2);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.9f, 0.9f}), 3);
}

TEST(GlobalTree, BoundaryTiesGoRight) {
  const auto records = four_rank_records();
  const GlobalTree tree = GlobalTree::from_records(4, 2, records);
  // Construction partitions coord < split to the left, so a query
  // exactly on the plane belongs to the right side.
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.5f, 0.1f}), 2);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.5f}), 1);
}

TEST(GlobalTree, MissingRecordThrows) {
  std::vector<SplitRecord> records{{0, 4, 2, 0, 0.5f}};  // children missing
  EXPECT_THROW(GlobalTree::from_records(4, 2, records), panda::Error);
}

TEST(GlobalTree, NodeCountIsTwoRanksMinusOne) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  EXPECT_EQ(tree.node_count(), 7u);
}

TEST(GlobalTree, LeafDepths) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  for (int r = 0; r < 4; ++r) EXPECT_EQ(tree.leaf_depth(r), 2);
}

TEST(GlobalTree, RanksInBallSmallRadiusIsOwnerOnly) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  const std::vector<float> q{0.25f, 0.25f};
  const auto ranks = ranks_in_ball(tree, q, 0.01f * 0.01f);
  EXPECT_EQ(ranks, (std::vector<int>{0}));
}

TEST(GlobalTree, RanksInBallInfiniteRadiusIsEveryone) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  const auto ranks = ranks_in_ball(tree, std::vector<float>{0.25f, 0.25f},
                                  std::numeric_limits<float>::infinity());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2, 3}));
}

TEST(GlobalTree, RanksInBallCrossesOnlyNearbyBoundaries) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  // Query near the x=0.5 boundary but far from y boundaries.
  const std::vector<float> q{0.49f, 0.1f};
  const float r = 0.05f;
  const auto ranks = ranks_in_ball(tree, q, r * r);
  // Owner r0 plus r2 across the x boundary; y=0.5 (left) and y=0.3
  // (right) are farther than 0.05 from y=0.1? |0.1-0.3| = 0.2 > r, and
  // |0.1-0.5| = 0.4 > r, so r1 and r3 are excluded.
  EXPECT_EQ(ranks, (std::vector<int>{0, 2}));
}

TEST(GlobalTree, BallContainmentIsGeometricallySound) {
  // Property: for random queries and radii, every rank owning any
  // point within the radius must be in ranks_in_ball. Verify against
  // dense probing of the 2-D plane.
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  panda::Rng rng(7);
  std::vector<int> ranks;  // reused by every trial
  std::vector<float> offsets;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<float> q{static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform())};
    const float radius = static_cast<float>(rng.uniform(0.01, 0.5));
    tree.ranks_in_ball(q, radius * radius, ranks, offsets);
    const std::set<int> rank_set(ranks.begin(), ranks.end());
    // Probe points on a grid inside the ball; their owners must all be
    // listed.
    for (int gx = -5; gx <= 5; ++gx) {
      for (int gy = -5; gy <= 5; ++gy) {
        const float dx = radius * 0.19f * static_cast<float>(gx);
        const float dy = radius * 0.19f * static_cast<float>(gy);
        if (dx * dx + dy * dy >= radius * radius) continue;
        const std::vector<float> p{q[0] + dx, q[1] + dy};
        const int owner = tree.owner_of(p);
        EXPECT_TRUE(rank_set.count(owner))
            << "probe owner " << owner << " missing; trial " << trial;
      }
    }
  }
}

TEST(GlobalTree, OwnerAlwaysInBall) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  panda::Rng rng(9);
  std::vector<int> ranks;
  std::vector<float> offsets;
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<float> q{static_cast<float>(rng.uniform(-0.5, 1.5)),
                               static_cast<float>(rng.uniform(-0.5, 1.5))};
    tree.ranks_in_ball(q, 1e-12f, ranks, offsets);
    const int owner = tree.owner_of(q);
    EXPECT_TRUE(std::find(ranks.begin(), ranks.end(), owner) != ranks.end());
  }
}

TEST(GlobalTree, ClosedBallKeepsBoundaryRanksAndBuffersAreRefilled) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  std::vector<int> ranks;
  std::vector<float> offsets;
  tree.ranks_in_closed_ball(std::vector<float>{0.25f, 0.25f},
                            std::numeric_limits<float>::infinity(), ranks,
                            offsets);
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2, 3}));
  // On the x = 0.5 plane: a zero radius touches both sides in the
  // closed ball and nothing in the open one. Each call replaces what
  // the buffers held.
  const std::vector<float> on_plane{0.5f, 0.1f};
  tree.ranks_in_closed_ball(on_plane, 0.0f, ranks, offsets);
  EXPECT_EQ(ranks, (std::vector<int>{0, 2}));
  tree.ranks_in_ball(on_plane, 0.0f, ranks, offsets);
  EXPECT_TRUE(ranks.empty());
  tree.ranks_in_closed_ball(on_plane, -1.0f, ranks, offsets);
  EXPECT_TRUE(ranks.empty());
}

TEST(GlobalTree, UnevenRankCountsSupported) {
  // 3 ranks: [0,3) splits into [0,2) and [2,3); [0,2) into leaves.
  const std::vector<SplitRecord> records{
      {0, 3, 2, 0, 0.6f},
      {0, 2, 1, 1, 0.5f},
  };
  const GlobalTree tree = GlobalTree::from_records(3, 2, records);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.1f}), 0);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.1f, 0.9f}), 1);
  EXPECT_EQ(tree.owner_of(std::vector<float>{0.9f, 0.5f}), 2);
  EXPECT_EQ(tree.leaf_depth(2), 1);
  EXPECT_EQ(tree.leaf_depth(0), 2);
}

TEST(GlobalTree, DimensionMismatchThrows) {
  const GlobalTree tree = GlobalTree::from_records(4, 2, four_rank_records());
  EXPECT_THROW(tree.owner_of(std::vector<float>{0.5f}), panda::Error);
  EXPECT_THROW(ranks_in_ball(tree, std::vector<float>{0.5f, 0.5f, 0.5f}, 1.0f),
               panda::Error);
}

}  // namespace
}  // namespace panda::dist
