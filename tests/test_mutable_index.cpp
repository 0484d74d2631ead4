// Tests for core::MutableIndex (DESIGN.md §12): the logarithmic method
// pinned id-exact against an incrementally-maintained brute-force
// oracle at every step of interleaved insert/erase/query schedules —
// across datasets (including duplicate-heavy), k values, seals,
// background merges, explicit compactions, erase-then-reinsert of the
// same id, and concurrent readers during mutations (the TSan target).
//
// Exactness here means *identical*: the forest accumulates distances
// in the same dimension order as brute_force_knn and both sides break
// ties by the (dist², id) total order, so every row must match the
// oracle bit for bit — ids and distances, no tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/brute_force.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mutable_index.hpp"
#include "core/wal.hpp"
#include "data/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

using data::PointSet;

/// The ground truth: a map of live points updated in lockstep with the
/// index under test, answered by brute force over a materialized
/// ascending-id PointSet (also the live_points()/self-KNN row order).
class LiveOracle {
 public:
  explicit LiveOracle(std::size_t dims) : dims_(dims), cache_(dims) {}

  void insert(const PointSet& points) {
    std::vector<float> p(dims_);
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      points.copy_point(i, p.data());
      live_[points.id(i)] = p;
    }
    dirty_ = true;
  }

  std::size_t erase(std::span<const std::uint64_t> ids) {
    std::size_t n = 0;
    for (const std::uint64_t id : ids) n += live_.erase(id);
    if (n != 0) dirty_ = true;
    return n;
  }

  std::uint64_t size() const { return live_.size(); }

  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(live_.size());
    for (const auto& [id, p] : live_) out.push_back(id);
    return out;
  }

  /// Live points ascending by id (std::map iteration order).
  const PointSet& points() const {
    if (dirty_) {
      cache_ = PointSet(dims_);
      for (const auto& [id, p] : live_) cache_.push_point(p, id);
      dirty_ = false;
    }
    return cache_;
  }

  std::vector<Neighbor> knn(std::span<const float> query,
                            std::size_t k) const {
    return baselines::brute_force_knn(points(), query, k);
  }

  /// dist² < radius², ascending (dist², id); distances accumulated in
  /// dimension order like every kernel in the repository.
  std::vector<Neighbor> radius(std::span<const float> query,
                               float radius) const {
    const PointSet& pts = points();
    const float r2 = radius * radius;
    std::vector<Neighbor> out;
    for (std::uint64_t i = 0; i < pts.size(); ++i) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < dims_; ++d) {
        const float diff = query[d] - pts.at(i, d);
        acc += diff * diff;
      }
      if (acc < r2) out.push_back(Neighbor{acc, pts.id(i)});
    }
    std::sort(out.begin(), out.end(), [](const Neighbor& a,
                                         const Neighbor& b) {
      return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
    });
    return out;
  }

 private:
  std::size_t dims_;
  std::map<std::uint64_t, std::vector<float>> live_;
  mutable PointSet cache_;
  mutable bool dirty_ = true;
};

void expect_row_identical(std::span<const Neighbor> actual,
                          const std::vector<Neighbor>& expected,
                          const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].id, expected[r].id) << context << " rank " << r;
    ASSERT_EQ(actual[r].dist2, expected[r].dist2)
        << context << " rank " << r;
  }
}

/// Every query row of knn_batch must equal the oracle's brute-force
/// answer exactly.
void expect_knn_matches(const MutableIndex& index, const LiveOracle& oracle,
                        const PointSet& queries, std::size_t k,
                        NeighborTable& results, ForestWorkspace& ws,
                        const std::string& context) {
  index.knn_batch(queries, k, results, ws);
  ASSERT_EQ(results.size(), queries.size()) << context;
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.knn(q, k),
                         context + " query " + std::to_string(i));
  }
}

void expect_radius_matches(const MutableIndex& index,
                           const LiveOracle& oracle, const PointSet& queries,
                           std::span<const float> radii,
                           NeighborTable& results, ForestWorkspace& ws,
                           const std::string& context) {
  index.radius_batch(queries, radii, results, ws);
  ASSERT_EQ(results.size(), queries.size()) << context;
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.radius(q, radii[i]),
                         context + " radius query " + std::to_string(i));
  }
}

/// self_knn_batch row i answers the i-th live point ascending by id.
void expect_self_knn_matches(const MutableIndex& index,
                             const LiveOracle& oracle, std::size_t k,
                             NeighborTable& results, ForestWorkspace& ws,
                             const std::string& context) {
  index.self_knn_batch(k, results, ws);
  const PointSet& pts = oracle.points();
  ASSERT_EQ(results.size(), pts.size()) << context;
  std::vector<float> q(pts.dims());
  for (std::uint64_t i = 0; i < pts.size(); ++i) {
    pts.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.knn(q, k),
                         context + " self row " + std::to_string(i));
  }
}

struct Harness {
  std::shared_ptr<parallel::ThreadPool> pool =
      std::make_shared<parallel::ThreadPool>(2);
  NeighborTable results;
  ForestWorkspace ws;

  MutableIndex make(std::size_t dims, std::size_t buffer_capacity,
                    std::uint32_t fan_in) {
    MutableConfig config;
    config.buffer_capacity = buffer_capacity;
    config.merge_fan_in = fan_in;
    return MutableIndex(dims, config, BuildConfig{}, pool);
  }
};

// ---------------------------------------------------------------------
// The tentpole pin: interleaved insert/erase/query schedules stay
// id-exact versus the incremental oracle, across datasets × k, with a
// buffer small enough (64) that the schedule drives seals, level
// merges, quiesces, and one compaction.
// ---------------------------------------------------------------------
class MutableSchedule
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {};

TEST_P(MutableSchedule, InterleavedMutationsMatchOracle) {
  const auto [dataset, k] = GetParam();
  Harness h;
  const auto gen = data::make_generator(dataset, /*seed=*/1234);
  const auto qgen = data::make_generator(dataset, /*seed=*/99);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/64,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());
  Rng rng(derive_seed(0xABCD, k));

  std::uint64_t next_id = 0;
  const std::size_t steps = 12;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::string at = std::string(dataset) + " k=" +
                           std::to_string(k) + " step " +
                           std::to_string(step);
    // Insert a chunk (first chunk big enough that k=32 always has
    // enough live points).
    const std::uint64_t chunk = step == 0 ? 200 : 48;
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + chunk, fresh);
    next_id += chunk;
    index.insert(fresh);
    oracle.insert(fresh);

    // Erase a deterministic random sample of live ids (plus one id
    // that was never inserted — must be ignored, not counted).
    if (step % 2 == 1) {
      const auto live = oracle.ids();
      std::vector<std::uint64_t> doomed;
      for (int e = 0; e < 16; ++e) {
        doomed.push_back(live[rng.uniform_index(live.size())]);
      }
      doomed.push_back(next_id + 1000000);
      const std::size_t expected = oracle.erase(doomed);
      EXPECT_EQ(index.erase(doomed), expected) << at;
    }

    // Mid-schedule structural events: drain merges once, compact once
    // — neither may change any answer.
    if (step == 6) index.quiesce();
    if (step == 8) index.compact();

    EXPECT_EQ(index.size(), oracle.size()) << at;
    PointSet queries(gen->dims());
    qgen->generate(step * 16, step * 16 + 16, queries);
    expect_knn_matches(index, oracle, queries, k, h.results, h.ws, at);
    if (step % 3 == 0) {
      std::vector<float> radii(queries.size());
      for (std::size_t i = 0; i < radii.size(); ++i) {
        radii[i] = 0.05f + 0.03f * static_cast<float>(i % 5);
      }
      expect_radius_matches(index, oracle, queries, radii, h.results, h.ws,
                            at);
    }
    // A batch above both inline cutoffs (kInlineKnnBatch,
    // kInlineRadiusBatch): KNN and radius fan out over the pool at
    // every step, across tombstones, buffered runs and several trees.
    PointSet wide(gen->dims());
    qgen->generate(1000000 + step * 200, 1000000 + step * 200 + 200, wide);
    expect_knn_matches(index, oracle, wide, k, h.results, h.ws,
                       at + " wide");
    std::vector<float> wide_radii(wide.size());
    for (std::size_t i = 0; i < wide_radii.size(); ++i) {
      wide_radii[i] = 0.05f + 0.03f * static_cast<float>(i % 5);
    }
    expect_radius_matches(index, oracle, wide, wide_radii, h.results, h.ws,
                          at + " wide");
  }

  // The schedule must actually have exercised the machinery.
  const MutationStats stats = index.stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.live_points, oracle.size());

  expect_self_knn_matches(index, oracle, std::min<std::size_t>(k, 5),
                          h.results, h.ws, "final self-knn");

  // live_points() is the oracle's ascending-id set, coordinates and
  // all.
  const PointSet live = index.live_points();
  const PointSet& expected = oracle.points();
  ASSERT_EQ(live.size(), expected.size());
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live.id(i), expected.id(i)) << "live point " << i;
    for (std::size_t d = 0; d < live.dims(); ++d) {
      ASSERT_EQ(live.at(i, d), expected.at(i, d)) << "live point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndK, MutableSchedule,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{32})));

// ---------------------------------------------------------------------
// Tombstone semantics.
// ---------------------------------------------------------------------

TEST(MutableErase, EraseThenReinsertSameIdInATree) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/7);
  // Tiny buffer: the first batch seals into a tree, so the erased copy
  // of id 5 is tree-resident when the new copy lands in the buffer.
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/8,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 64, batch);
  index.insert(batch);
  oracle.insert(batch);
  index.quiesce();
  ASSERT_GT(index.stats().trees, 0u);

  const std::uint64_t doomed[] = {5};
  EXPECT_EQ(index.erase(doomed), 1u);
  EXPECT_EQ(oracle.erase(doomed), 1u);
  // A second erase of the same id is a no-op.
  EXPECT_EQ(index.erase(doomed), 0u);

  // Re-insert id 5 at a brand-new location.
  PointSet reborn(gen->dims());
  reborn.push_point(std::vector<float>{0.123f, 0.456f, 0.789f}, 5);
  index.insert(reborn);
  oracle.insert(reborn);

  // The new copy answers at distance 0; the old copy stays dead even
  // though its coordinates are still packed in the tree.
  std::vector<float> at_new{0.123f, 0.456f, 0.789f};
  PointSet queries(gen->dims());
  queries.push_point(at_new, 0);
  std::vector<float> at_old(gen->dims());
  batch.copy_point(5, at_old.data());
  queries.push_point(at_old, 1);
  expect_knn_matches(index, oracle, queries, 4, h.results, h.ws,
                     "reinserted id");
  index.knn_batch(queries, 1, h.results, h.ws);
  ASSERT_EQ(h.results[0].size(), 1u);
  EXPECT_EQ(h.results[0][0].id, 5u);
  EXPECT_EQ(h.results[0][0].dist2, 0.0f);

  // Compaction drops the tombstones without changing any answer.
  index.compact();
  EXPECT_EQ(index.stats().tombstones, 0u);
  expect_knn_matches(index, oracle, queries, 4, h.results, h.ws,
                     "after compact");
}

// An erase that lands while a seal or a level merge builds goes to the
// dead list of a claimed container; the rebuilt tree must carry it over
// (dead now minus dead at claim), or the erased points come back. Each
// build here takes 100k+ points on the size-1 lane pool, and each erase
// is issued once the stats show that build running.
TEST(MutableErase, ErasesDuringInFlightSealAndMergeAreCarried) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/29);
  const std::uint64_t n = 100000;
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/n,
                              /*fan_in=*/2);
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t round = 0; round < 2; ++round) {
    PointSet batch(gen->dims());
    gen->generate(round * n, (round + 1) * n, batch);
    index.insert(batch);  // a full buffer: seal `round` is queued
    // Round 0 waits for the seal of this batch, round 1 for the merge of
    // the two level-0 trees (or, on a stalled test thread, for either
    // to finish: the erase then lands afterwards, as an ordinary one).
    for (;;) {
      const MutationStats s = index.stats();
      const bool running =
          s.merge_in_flight && (round == 0 || s.seals == 2);
      if (running || s.seals + s.merges > 2 * round) break;
      std::this_thread::yield();
    }
    // Round 1 erases from both trees the merge reads.
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id = 7 + 50 * round; id < (round + 1) * n; id += 101) {
      ids.push_back(id);
    }
    EXPECT_EQ(index.erase(ids), ids.size());
    doomed.insert(doomed.end(), ids.begin(), ids.end());
  }
  index.quiesce();
  EXPECT_EQ(index.stats().trees, 1u);
  std::sort(doomed.begin(), doomed.end());
  const PointSet live = index.live_points();
  ASSERT_EQ(live.size(), 2 * n - doomed.size());
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    ASSERT_FALSE(std::binary_search(doomed.begin(), doomed.end(), live.id(i)))
        << "erased id " << live.id(i) << " came back";
  }
}

TEST(MutableErase, EraseEverythingThenRefill) {
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/3);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/16,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 40, batch);
  index.insert(batch);
  oracle.insert(batch);

  std::vector<std::uint64_t> all;
  for (std::uint64_t id = 0; id < 40; ++id) all.push_back(id);
  EXPECT_EQ(index.erase(all), 40u);
  oracle.erase(all);
  EXPECT_EQ(index.size(), 0u);

  // Queries against a fully-tombstoned forest return empty rows.
  PointSet queries(gen->dims());
  gen->generate(500, 504, queries);
  index.knn_batch(queries, 3, h.results, h.ws);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(h.results[i].size(), 0u);
  }

  // Refill (reusing the erased ids) and verify exactness end to end.
  PointSet fresh(gen->dims());
  gen->generate(1000, 1040, fresh);
  PointSet reborn(gen->dims());
  std::vector<float> p(gen->dims());
  for (std::uint64_t i = 0; i < fresh.size(); ++i) {
    fresh.copy_point(i, p.data());
    reborn.push_point(p, i);  // ids 0..39 again
  }
  index.insert(reborn);
  oracle.insert(reborn);
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws, "refill");
}

TEST(MutableErase, CrowdedTombstonesAroundAQueryStayExact) {
  // Every one of each query's 64 nearest neighbours in the forest's
  // largest tree is dead. Dead ids are skipped at admission and never
  // tighten the heap's bound, so the descent keeps going past them and
  // the answer stays exact at every k.
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/515);
  MutableConfig config;
  config.buffer_capacity = 256;
  config.merge_fan_in = 4;
  const PointSet seed_points = gen->generate_all(4000);
  MutableIndex index(KdTree::build(seed_points, BuildConfig{}, *h.pool),
                     config, BuildConfig{}, h.pool);
  LiveOracle oracle(gen->dims());
  oracle.insert(seed_points);
  // A level-0 tree (300 points seal at once) and 40 buffered points
  // beside the seed tree.
  std::uint64_t next_id = 4000;
  for (const std::uint64_t count : {300, 40}) {
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + count, fresh);
    next_id += count;
    index.insert(fresh);
    oracle.insert(fresh);
    index.quiesce();
  }
  ASSERT_EQ(index.stats().trees, 2u);
  ASSERT_EQ(index.stats().buffered_points, 40u);

  PointSet queries(gen->dims());
  gen->generate(9000, 9006, queries);
  std::vector<std::uint64_t> doomed;
  std::vector<float> q(gen->dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    for (const Neighbor& n : baselines::brute_force_knn(seed_points, q, 64)) {
      doomed.push_back(n.id);
    }
  }
  const std::size_t erased = oracle.erase(doomed);
  EXPECT_EQ(index.erase(doomed), erased);
  ASSERT_GE(index.stats().tombstones, 64u);

  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::size_t{32}}) {
    expect_knn_matches(index, oracle, queries, k, h.results, h.ws,
                       "crowded k=" + std::to_string(k));
  }
  const std::vector<float> radii(queries.size(), 0.08f);
  expect_radius_matches(index, oracle, queries, radii, h.results, h.ws,
                        "crowded radius");
}

// ---------------------------------------------------------------------
// Input validation: typed errors, all-or-nothing batches.
// ---------------------------------------------------------------------

TEST(MutableValidation, DuplicateInsertsRejectedAtomically) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/11);
  MutableIndex index = h.make(gen->dims(), 32, 2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 20, batch);
  index.insert(batch);
  oracle.insert(batch);

  // Collides with live id 7 → whole batch rejected, nothing admitted.
  PointSet collide(gen->dims());
  gen->generate(100, 110, collide);
  std::vector<float> p(gen->dims());
  collide.copy_point(0, p.data());
  collide.push_point(p, 7);
  EXPECT_THROW(index.insert(collide), panda::Error);
  EXPECT_EQ(index.size(), 20u);

  // Repeats an id within the batch → rejected too.
  PointSet repeat(gen->dims());
  gen->generate(200, 202, repeat);
  repeat.copy_point(0, p.data());
  repeat.push_point(p, 200);
  EXPECT_THROW(index.insert(repeat), panda::Error);
  EXPECT_EQ(index.size(), 20u);

  // The failed batches must not have perturbed any answer.
  PointSet queries(gen->dims());
  gen->generate(900, 908, queries);
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws,
                     "after rejected batches");
}

TEST(MutableValidation, DimensionAndParameterErrors) {
  Harness h;
  MutableIndex index = h.make(3, 32, 2);
  PointSet batch(3);
  batch.push_point(std::vector<float>{1, 2, 3}, 0);
  index.insert(batch);

  PointSet wrong(2);
  wrong.push_point(std::vector<float>{1, 2}, 9);
  EXPECT_THROW(index.insert(wrong), panda::Error);

  PointSet queries(3);
  queries.push_point(std::vector<float>{0, 0, 0}, 0);
  EXPECT_THROW(index.knn_batch(queries, 0, h.results, h.ws), panda::Error);
  PointSet wrong_q(2);
  wrong_q.push_point(std::vector<float>{0, 0}, 0);
  EXPECT_THROW(index.knn_batch(wrong_q, 1, h.results, h.ws), panda::Error);

  const std::vector<float> too_few_radii{0.5f, 0.5f};
  EXPECT_THROW(index.radius_batch(queries, too_few_radii, h.results, h.ws),
               panda::Error);
  const std::vector<float> negative{-0.5f};
  EXPECT_THROW(index.radius_batch(queries, negative, h.results, h.ws),
               panda::Error);

  EXPECT_THROW(MutableIndex(0, MutableConfig{}, BuildConfig{}, h.pool),
               panda::Error);
  MutableConfig bad_fan;
  bad_fan.merge_fan_in = 1;
  EXPECT_THROW(MutableIndex(3, bad_fan, BuildConfig{}, h.pool),
               panda::Error);
}

TEST(MutableValidation, EmptyIndexAndEmptyBatches) {
  Harness h;
  MutableIndex index = h.make(3, 32, 2);
  EXPECT_EQ(index.size(), 0u);

  // Empty insert: a no-op, not an error.
  index.insert(PointSet(3));
  EXPECT_EQ(index.size(), 0u);
  const std::uint64_t ids[] = {1, 2, 3};
  EXPECT_EQ(index.erase(ids), 0u);

  PointSet queries(3);
  queries.push_point(std::vector<float>{0.5f, 0.5f, 0.5f}, 0);
  index.knn_batch(queries, 4, h.results, h.ws);
  ASSERT_EQ(h.results.size(), 1u);
  EXPECT_EQ(h.results[0].size(), 0u);
  const std::vector<float> radii{0.5f};
  index.radius_batch(queries, radii, h.results, h.ws);
  EXPECT_EQ(h.results[0].size(), 0u);
}

// ---------------------------------------------------------------------
// Concurrency: readers run full speed through snapshots while a writer
// mutates — ordering invariants hold on every row, and the final state
// is oracle-exact. The TSan build runs this binary (ci.sh tsan).
// ---------------------------------------------------------------------

TEST(MutableConcurrency, ReadersDuringInsertsErasesAndMerges) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/21);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/32,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet seed_batch(gen->dims());
  gen->generate(0, 100, seed_batch);
  index.insert(seed_batch);
  oracle.insert(seed_batch);

  const auto qgen = data::make_generator("uniform", /*seed=*/5);
  PointSet queries(gen->dims());
  qgen->generate(0, 8, queries);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rows_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      NeighborTable results;
      ForestWorkspace ws;
      // At least a few passes even if the writer finishes first (on a
      // loaded single-core box the whole schedule can run before this
      // thread is ever scheduled).
      int remaining_min_passes = 5;
      while (remaining_min_passes-- > 0 ||
             !stop.load(std::memory_order_relaxed)) {
        index.knn_batch(queries, 5, results, ws);
        for (std::size_t i = 0; i < results.size(); ++i) {
          const auto row = results[i];
          for (std::size_t j = 0; j + 1 < row.size(); ++j) {
            // Ascending (dist², id) — a torn snapshot would break it.
            const bool ordered =
                row[j].dist2 < row[j + 1].dist2 ||
                (row[j].dist2 == row[j + 1].dist2 &&
                 row[j].id < row[j + 1].id);
            if (!ordered) {
              ADD_FAILURE() << "row order violated at rank " << j;
              stop.store(true);
              return;
            }
          }
          rows_checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: 30 mutation rounds against live readers.
  Rng rng(derive_seed(0xF00D, 1));
  std::uint64_t next_id = 100;
  for (int round = 0; round < 30; ++round) {
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + 24, fresh);
    index.insert(fresh);
    oracle.insert(fresh);
    next_id += 24;
    if (round % 3 == 2) {
      const auto live = oracle.ids();
      std::vector<std::uint64_t> doomed;
      for (int e = 0; e < 8; ++e) {
        doomed.push_back(live[rng.uniform_index(live.size())]);
      }
      oracle.erase(doomed);
      index.erase(doomed);
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(rows_checked.load(), 0u);

  // Settled state is exact.
  index.quiesce();
  EXPECT_EQ(index.size(), oracle.size());
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws,
                     "after concurrent schedule");
}

// ---------------------------------------------------------------------
// Stats bookkeeping.
// ---------------------------------------------------------------------

TEST(MutableStats, CountersTrackTheSchedule) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/42);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/16,
                              /*fan_in=*/2);

  PointSet batch(gen->dims());
  gen->generate(0, 50, batch);
  index.insert(batch);
  index.quiesce();

  MutationStats stats = index.stats();
  EXPECT_EQ(stats.inserts, 50u);
  EXPECT_EQ(stats.live_points, 50u);
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.trees, 0u);
  EXPECT_EQ(stats.pending_sealed_groups, 0u);
  EXPECT_FALSE(stats.merge_in_flight);

  const std::uint64_t doomed[] = {1, 2, 3};
  index.erase(doomed);
  stats = index.stats();
  EXPECT_EQ(stats.erases, 3u);
  EXPECT_EQ(stats.live_points, 47u);
  EXPECT_EQ(stats.tombstones, 3u);

  index.compact();
  stats = index.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.trees, 1u);
  EXPECT_EQ(stats.buffered_points, 0u);
  EXPECT_EQ(stats.live_points, 47u);
}

// ---------------------------------------------------------------------
// Durable mode (DESIGN.md §13): a directory-backed forest survives
// destruction and reopens id- and query-exact, through seals, merges,
// erases, and compaction.
// ---------------------------------------------------------------------

class DurableDir {
 public:
  DurableDir() {
    dir_ = ::testing::TempDir() + "/panda_durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  ~DurableDir() { std::filesystem::remove_all(dir_); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

MutableConfig durable_config(const std::string& dir,
                             std::size_t buffer_capacity) {
  MutableConfig config;
  config.durable_dir = dir;
  config.buffer_capacity = buffer_capacity;
  config.merge_fan_in = 2;
  return config;
}

/// `ids.size()` fresh points from `gen` (its ids from `offset` on),
/// relabeled with `ids`.
PointSet points_with_ids(const data::Generator& gen, std::uint64_t offset,
                         const std::vector<std::uint64_t>& ids) {
  PointSet fresh(gen.dims());
  gen.generate(offset, offset + ids.size(), fresh);
  PointSet out(gen.dims());
  std::vector<float> p(gen.dims());
  for (std::uint64_t i = 0; i < fresh.size(); ++i) {
    fresh.copy_point(i, p.data());
    out.push_point(p, ids[i]);
  }
  return out;
}

/// Reopens the durable directory of `config` and checks it against
/// `oracle`: size, the live ids in order, and every live point's KNN
/// row.
void expect_reopens_to(const LiveOracle& oracle, std::size_t dims,
                       const MutableConfig& config, Harness& h) {
  MutableIndex reopened(dims, config, BuildConfig{}, h.pool);
  EXPECT_TRUE(reopened.recovery_diagnostic().empty())
      << reopened.recovery_diagnostic();
  EXPECT_EQ(reopened.size(), oracle.size());
  const PointSet live = reopened.live_points();
  const auto want_ids = oracle.ids();
  ASSERT_EQ(live.size(), want_ids.size());
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live.id(i), want_ids[i]);
  }
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/4, h.results,
                     h.ws, "reopened knn");
}

TEST(MutableDurability, ReopenedDirectoryMatchesOracleExactly) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/4242);
  LiveOracle oracle(gen->dims());

  // Phase 1: interleaved mutations against a durable forest, buffer
  // small enough (32) that seals and merges run mid-schedule.
  {
    MutableIndex index(gen->dims(), durable_config(dir.path(), 32),
                       BuildConfig{}, h.pool);
    std::uint64_t next_id = 0;
    for (int round = 0; round < 6; ++round) {
      PointSet batch = gen->generate_all(40);
      PointSet relabeled(batch.dims());
      std::vector<float> p(batch.dims());
      for (std::uint64_t i = 0; i < batch.size(); ++i) {
        batch.copy_point(i, p.data());
        relabeled.push_point(p, next_id++);
      }
      index.insert(relabeled);
      oracle.insert(relabeled);
      if (round % 2 == 1) {
        std::vector<std::uint64_t> doomed;
        for (std::uint64_t id = round; id < next_id; id += 7) {
          doomed.push_back(id);
        }
        EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
      }
    }
    index.quiesce();
    EXPECT_EQ(index.size(), oracle.size());
    // The destructor closes the directory cleanly (WAL synced).
  }

  // Phase 2: recovery — same live set, same answers.
  MutableIndex reopened(gen->dims(), durable_config(dir.path(), 32),
                        BuildConfig{}, h.pool);
  EXPECT_TRUE(reopened.recovery_diagnostic().empty())
      << reopened.recovery_diagnostic();
  EXPECT_EQ(reopened.size(), oracle.size());
  const PointSet live = reopened.live_points();
  ASSERT_EQ(live.size(), oracle.size());
  const auto want_ids = oracle.ids();
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live.id(i), want_ids[i]);
  }
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/5, h.results,
                       h.ws, "recovered knn");

  // Phase 3: the recovered forest keeps mutating durably.
  PointSet extra = gen->generate_all(10);
  PointSet relabeled(extra.dims());
  std::vector<float> p(extra.dims());
  for (std::uint64_t i = 0; i < extra.size(); ++i) {
    extra.copy_point(i, p.data());
    relabeled.push_point(p, 10000 + i);
  }
  reopened.insert(relabeled);
  oracle.insert(relabeled);
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/5, h.results,
                       h.ws, "post-recovery knn");
}

TEST(MutableDurability, CompactionRotatesWalAndSurvivesReopen) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/7);
  LiveOracle oracle(gen->dims());

  {
    MutableIndex index(gen->dims(), durable_config(dir.path(), 16),
                       BuildConfig{}, h.pool);
    PointSet batch = gen->generate_all(100);
    index.insert(batch);
    oracle.insert(batch);
    std::vector<std::uint64_t> doomed;
    for (std::uint64_t i = 0; i < batch.size(); i += 3) {
      doomed.push_back(batch.id(i));
    }
    EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
    index.compact();
    // Compaction rewrites the directory to one tree + an empty WAL;
    // the only surviving files are MANIFEST, one tree, one wal.
    std::size_t trees = 0, wals = 0, manifests = 0, other = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name == "MANIFEST") {
        ++manifests;
      } else if (name.starts_with("tree-")) {
        ++trees;
      } else if (name.starts_with("wal-")) {
        ++wals;
      } else {
        ++other;
      }
    }
    EXPECT_EQ(manifests, 1u);
    EXPECT_EQ(trees, 1u);
    EXPECT_EQ(wals, 1u);
    EXPECT_EQ(other, 0u);
  }

  MutableIndex reopened(gen->dims(), durable_config(dir.path(), 16),
                        BuildConfig{}, h.pool);
  EXPECT_TRUE(reopened.recovery_diagnostic().empty());
  EXPECT_EQ(reopened.size(), oracle.size());
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/4, h.results,
                       h.ws, "post-compaction recovery");
}

TEST(MutableDurability, SeedingANonEmptyDirectoryIsRefused) {
  DurableDir dir;
  Harness h;
  {
    MutableIndex index(3, durable_config(dir.path(), 32), BuildConfig{},
                       h.pool);
    PointSet one(3);
    one.push_point(std::vector<float>{1.f, 2.f, 3.f}, 1);
    index.insert(one);
  }
  // Inserting a colliding id after recovery is refused like any other
  // collision — the WAL must never record a rejected batch (replaying
  // it would corrupt the live set).
  MutableIndex reopened(3, durable_config(dir.path(), 32), BuildConfig{},
                        h.pool);
  PointSet dup(3);
  dup.push_point(std::vector<float>{4.f, 5.f, 6.f}, 1);
  EXPECT_THROW(reopened.insert(dup), Error);
  EXPECT_EQ(reopened.size(), 1u);
}

// A batch with one non-finite coordinate is refused whole before it is
// admitted or logged: size() is unchanged, a durable reopen replays
// nothing of it, and its ids are still free afterwards.
TEST(MutableDurability, NonFiniteBatchIsRefusedBeforeTheLog) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/61);
  const MutableConfig config = durable_config(dir.path(), 32);
  LiveOracle oracle(gen->dims());
  PointSet fresh(gen->dims());
  gen->generate(100, 110, fresh);
  {
    MutableIndex index(gen->dims(), config, BuildConfig{}, h.pool);
    PointSet batch(gen->dims());
    gen->generate(0, 20, batch);
    index.insert(batch);
    oracle.insert(batch);
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      PointSet poisoned = fresh;
      poisoned.coordinate(1)[5] = bad;  // id 105; ids 100..104 precede it
      EXPECT_THROW(index.insert(poisoned), Error) << bad;
      EXPECT_EQ(index.size(), 20u) << bad;
    }
  }
  expect_reopens_to(oracle, gen->dims(), config, h);
  MutableIndex reopened(gen->dims(), config, BuildConfig{}, h.pool);
  reopened.insert(fresh);  // no id of the refused batch was admitted
  EXPECT_EQ(reopened.size(), 30u);
}

// A frame's CRC vouches for its bytes, not for what they hold: a
// CRC-valid Insert frame with a NaN coordinate, appended to the log of
// a closed directory, makes the reopen throw naming the log, the point
// id and the dimension.
TEST(MutableDurability, NonFiniteWalInsertIsRefusedAtReplay) {
  DurableDir dir;
  Harness h;
  const MutableConfig config = durable_config(dir.path(), 32);
  {
    MutableIndex index(3, config, BuildConfig{}, h.pool);
    PointSet batch(3);
    batch.push_point(std::vector<float>{0.1f, 0.2f, 0.3f}, 1);
    batch.push_point(std::vector<float>{0.4f, 0.5f, 0.6f}, 2);
    index.insert(batch);
  }
  std::string wal;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().filename().string().starts_with("wal-")) {
      wal = entry.path().string();
    }
  }
  ASSERT_FALSE(wal.empty());
  {
    const Wal::ReplayResult replayed = Wal::replay(wal, 3);
    ASSERT_FALSE(replayed.torn) << replayed.diagnostic;
    Wal log = Wal::open_for_append(wal, 3, replayed.valid_bytes);
    const std::vector<std::uint64_t> ids = {7, 8};
    const std::vector<float> coords = {
        0.7f, 0.8f, 0.9f, 0.1f, std::numeric_limits<float>::quiet_NaN(), 0.2f};
    log.append_insert(ids, coords);
    log.sync();
  }
  try {
    MutableIndex reopened(3, config, BuildConfig{}, h.pool);
    FAIL() << "replayed a NaN coordinate into " << reopened.size()
           << " live points";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(wal), std::string::npos) << what;
    EXPECT_NE(what.find("point id 8 "), std::string::npos) << what;
    EXPECT_NE(what.find("dimension 1"), std::string::npos) << what;
  }
}

TEST(MutableDurability, OverlappingCommittedTreesAreRefused) {
  // Two sealed trees of 256 points each, then one tree file copied over
  // the other: both files stay CRC-valid and the MANIFEST does not
  // checksum tree contents, so only the id check can catch it. Accepted,
  // every id of the copy would be live twice.
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/17);
  MutableConfig config;
  config.durable_dir = dir.path();
  config.buffer_capacity = 256;
  {
    MutableIndex index(gen->dims(), config, BuildConfig{}, h.pool);
    PointSet batch(gen->dims());
    gen->generate(0, 256, batch);
    index.insert(batch);
    index.quiesce();
    batch.clear();
    gen->generate(256, 512, batch);
    index.insert(batch);
    index.quiesce();
    EXPECT_EQ(index.stats().trees, 2u);
  }
  std::vector<std::string> trees;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("tree-")) trees.push_back(name);
  }
  ASSERT_EQ(trees.size(), 2u);
  std::sort(trees.begin(), trees.end(),
            [](const std::string& a, const std::string& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  std::filesystem::copy_file(dir.path() + "/" + trees[0],
                             dir.path() + "/" + trees[1],
                             std::filesystem::copy_options::overwrite_existing);
  try {
    MutableIndex reopened(gen->dims(), config, BuildConfig{}, h.pool);
    FAIL() << "recovered " << reopened.size()
           << " live ids from two trees holding the same ids";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("id 0 "), std::string::npos) << what;
    EXPECT_NE(what.find(trees[0]), std::string::npos) << what;
    EXPECT_NE(what.find(trees[1]), std::string::npos) << what;
  }
}

TEST(MutableDurability, ErasedAndReinsertedIdsReopenExactly) {
  // Erase-then-reinsert leaves the old copy dead in its old tree until a
  // merge or compaction, so committed trees may share an id. The
  // rotated WAL's Tombstones frame names the dead copies. Here id 5
  // ends live in the second tree, id 6 dead in the seed and the second
  // tree, and id 7 in all three trees, live only in the newest.
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/23);
  LiveOracle oracle(gen->dims());
  MutableConfig config = durable_config(dir.path(), /*buffer_capacity=*/16);
  config.merge_fan_in = 8;  // the seed and the sealed trees never merge
  {
    PointSet seed_points(gen->dims());
    gen->generate(0, 64, seed_points);
    oracle.insert(seed_points);
    MutableIndex index(KdTree::build(seed_points, BuildConfig{}, *h.pool),
                       config, BuildConfig{}, h.pool);

    std::vector<std::uint64_t> doomed = {5, 6, 7};
    EXPECT_EQ(index.erase(doomed), 3u);
    oracle.erase(doomed);
    std::vector<std::uint64_t> ids = {5, 6, 7};
    for (std::uint64_t id = 100; ids.size() < 16; ++id) ids.push_back(id);
    PointSet batch = points_with_ids(*gen, 1000, ids);
    index.insert(batch);
    oracle.insert(batch);
    index.quiesce();

    doomed = {6, 7};
    EXPECT_EQ(index.erase(doomed), 2u);
    oracle.erase(doomed);
    ids = {7};
    for (std::uint64_t id = 200; ids.size() < 16; ++id) ids.push_back(id);
    batch = points_with_ids(*gen, 2000, ids);
    index.insert(batch);
    oracle.insert(batch);
    index.quiesce();
    EXPECT_EQ(index.stats().trees, 3u);
    EXPECT_EQ(index.size(), oracle.size());
  }
  expect_reopens_to(oracle, gen->dims(), config, h);
}

TEST(MutableDurability, ReinsertedIdSurvivesALevelMergeAndReopen) {
  // The level merge keeps the live copy of id 5 (second tree) and drops
  // the dead one (first tree). A Tombstones frame still naming the
  // dropped copy would make recovery kill the only, live copy.
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/29);
  LiveOracle oracle(gen->dims());
  const MutableConfig config =
      durable_config(dir.path(), /*buffer_capacity=*/8);
  {
    MutableIndex index(gen->dims(), config, BuildConfig{}, h.pool);
    PointSet batch(gen->dims());
    gen->generate(0, 8, batch);
    index.insert(batch);
    oracle.insert(batch);
    index.quiesce();

    const std::uint64_t doomed[] = {5};
    EXPECT_EQ(index.erase(doomed), 1u);
    oracle.erase(doomed);
    batch = points_with_ids(*gen, 100, {5, 100, 101, 102, 103, 104, 105, 106});
    index.insert(batch);
    oracle.insert(batch);
    index.quiesce();
    EXPECT_EQ(index.stats().merges, 1u);
    EXPECT_EQ(index.stats().trees, 1u);
    EXPECT_EQ(index.size(), oracle.size());
  }
  expect_reopens_to(oracle, gen->dims(), config, h);
}

// ---------------------------------------------------------------------
// The forest self-join (self_knn_batch): a join over the trees' own
// packed leaves with rows keyed by id rank. Pinned against brute force
// over the live set on a forest with several trees, open runs,
// tombstones on both sides, erased-then-reinserted ids, and ids whose
// rank differs from their insertion position.
// ---------------------------------------------------------------------

/// Builds the self-join fixture forest on `pool`: 3,000 points with
/// shuffled ids sealed into ten level-0 trees (a fan-in of 16 keeps the
/// shape free of merge timing), then erases, reinserts and open runs on
/// top. Mirrors every step into `oracle`.
std::unique_ptr<MutableIndex> make_self_join_forest(
    std::shared_ptr<parallel::ThreadPool> pool, LiveOracle& oracle) {
  const auto gen = data::make_generator("gmm", /*seed=*/2029);
  MutableConfig config;
  config.buffer_capacity = 256;
  config.merge_fan_in = 16;
  auto owned =
      std::make_unique<MutableIndex>(gen->dims(), config, BuildConfig{}, pool);
  MutableIndex& index = *owned;
  Rng rng(derive_seed(0x5E1F, 1));

  // Ids 7·p + 3 for p in a shuffled 0..2999: insertion position, id
  // and rank all differ.
  std::vector<std::uint64_t> ids(3000);
  for (std::uint64_t p = 0; p < ids.size(); ++p) ids[p] = 7 * p + 3;
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.uniform_index(i + 1)]);
  }
  for (std::size_t b = 0; b < ids.size(); b += 100) {
    const std::vector<std::uint64_t> batch_ids(ids.begin() + b,
                                               ids.begin() + b + 100);
    const PointSet batch = points_with_ids(*gen, b, batch_ids);
    index.insert(batch);
    oracle.insert(batch);
  }
  index.quiesce();

  // Tombstones in the trees; half of them come back at new coordinates
  // in a run, so their old copies stay dead in their trees.
  std::vector<std::uint64_t> doomed;
  for (std::size_t e = 0; e < 120; ++e) {
    doomed.push_back(ids[rng.uniform_index(ids.size())]);
  }
  EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  const std::vector<std::uint64_t> reborn_ids(doomed.begin(),
                                              doomed.begin() + 60);
  const PointSet reborn = points_with_ids(*gen, 50000, reborn_ids);
  index.insert(reborn);
  oracle.insert(reborn);

  // Two more open runs of new ids, then tombstones inside the runs
  // (a reborn id and a fresh one) and one more in a tree.
  for (std::uint64_t r = 0; r < 2; ++r) {
    std::vector<std::uint64_t> fresh_ids(50);
    for (std::uint64_t i = 0; i < fresh_ids.size(); ++i) {
      fresh_ids[i] = 1000000 - 97 * (r * 50 + i);
    }
    const PointSet fresh = points_with_ids(*gen, 60000 + r * 50, fresh_ids);
    index.insert(fresh);
    oracle.insert(fresh);
  }
  const std::uint64_t run_doomed[] = {reborn_ids[3], 1000000 - 97 * 7,
                                      ids[17]};
  EXPECT_EQ(index.erase(run_doomed), oracle.erase(run_doomed));
  return owned;
}

TEST(MutableSelfKnn, ForestJoinMatchesBruteForceOverTheLiveSet) {
  for (const int threads : {1, 4}) {
    auto pool = std::make_shared<parallel::ThreadPool>(threads);
    LiveOracle oracle(3);
    const auto forest = make_self_join_forest(pool, oracle);
    const MutableIndex& index = *forest;
    const MutationStats stats = index.stats();
    ASSERT_EQ(stats.trees, 10u);
    ASSERT_GT(stats.buffered_points, 0u);
    ASSERT_GT(stats.tombstones, 0u);
    // More leaves than the inline cutoff: a pool of 4 fans the leaves
    // out across chunks.
    ASSERT_GT(oracle.size() / BuildConfig{}.bucket_size, kInlineKnnBatch);
    NeighborTable results;
    ForestWorkspace ws;
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{6}, std::size_t{32}}) {
      expect_self_knn_matches(index, oracle, k, results, ws,
                              "pool " + std::to_string(threads) + " k=" +
                                  std::to_string(k));
    }
  }
}

TEST(MutableSelfKnn, AllDeadAndEmptyForests) {
  Harness h;
  MutableIndex index = h.make(3, /*buffer_capacity=*/16, /*fan_in=*/2);
  index.self_knn_batch(4, h.results, h.ws);
  EXPECT_EQ(h.results.size(), 0u);
  const auto gen = data::make_generator("uniform", /*seed=*/8);
  PointSet batch(gen->dims());
  gen->generate(0, 40, batch);
  index.insert(batch);
  index.quiesce();
  std::vector<std::uint64_t> all(40);
  for (std::uint64_t id = 0; id < all.size(); ++id) all[id] = id;
  EXPECT_EQ(index.erase(all), 40u);
  index.self_knn_batch(4, h.results, h.ws);
  EXPECT_EQ(h.results.size(), 0u);
  EXPECT_THROW(index.self_knn_batch(0, h.results, h.ws), panda::Error);
}

TEST(MutableConcurrency, SelfJoinDuringInsertsErasesAndSeals) {
  // Each self_knn_batch call pins one snapshot, and every snapshot a
  // writer publishes holds the live set after one whole insert or
  // erase. So every call's rows must equal the self-KNN oracle of one
  // state of the writer's schedule.
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/77);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/32,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());
  PointSet seed_batch(gen->dims());
  gen->generate(0, 150, seed_batch);
  index.insert(seed_batch);
  oracle.insert(seed_batch);
  std::vector<LiveOracle> states{oracle};

  constexpr std::size_t kSelfK = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::vector<Neighbor>>> seen;
  std::thread reader([&] {
    NeighborTable results;
    ForestWorkspace ws;
    int remaining_min_passes = 3;
    while (remaining_min_passes-- > 0 ||
           !stop.load(std::memory_order_relaxed)) {
      index.self_knn_batch(kSelfK, results, ws);
      if (seen.size() < 48) seen.push_back(results.to_vectors());
    }
  });

  Rng rng(derive_seed(0xBEEF, 2));
  std::uint64_t next_id = 150;
  for (int round = 0; round < 20; ++round) {
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + 16, fresh);
    next_id += 16;
    index.insert(fresh);
    oracle.insert(fresh);
    states.push_back(oracle);
    if (round % 2 == 1) {
      const auto live = oracle.ids();
      std::vector<std::uint64_t> doomed;
      for (int e = 0; e < 6; ++e) {
        doomed.push_back(live[rng.uniform_index(live.size())]);
      }
      EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
      states.push_back(oracle);
    }
  }
  stop.store(true);
  reader.join();
  ASSERT_FALSE(seen.empty());

  const auto matches = [&](const std::vector<std::vector<Neighbor>>& rows,
                           const LiveOracle& state) {
    const PointSet& pts = state.points();
    if (rows.size() != pts.size()) return false;
    std::vector<float> q(pts.dims());
    for (std::uint64_t i = 0; i < pts.size(); ++i) {
      pts.copy_point(i, q.data());
      if (rows[i] != state.knn(q, kSelfK)) return false;
    }
    return true;
  };
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_TRUE(std::any_of(states.begin(), states.end(),
                            [&](const LiveOracle& state) {
                              return matches(seen[c], state);
                            }))
        << "self-join call " << c << " (" << seen[c].size()
        << " rows) matches no state of the schedule";
  }
  index.quiesce();
  expect_self_knn_matches(index, oracle, kSelfK, h.results, h.ws,
                          "after concurrent schedule");
}

// ---------------------------------------------------------------------
// Radius-bounded KNN: the forest's heap takes the bound (k sentinels
// at (r², 0)), so rows equal Local's bounded query and the strict
// prefix of brute force, ties at the bound included.
// ---------------------------------------------------------------------

TEST(MutableBoundedKnn, MatchesLocalAndBruteForceAcrossTiesAtTheBound) {
  // Points on a 1/8 grid, each present twice (distinct ids): squared
  // distances between grid points are exact in float, so every query
  // on the grid sees tie groups of equal distance, and a radius of one
  // or two grid steps lands exactly on one.
  Harness h;
  MutableConfig config;
  config.buffer_capacity = 200;
  config.merge_fan_in = 8;
  MutableIndex index(3, config, BuildConfig{}, h.pool);
  LiveOracle oracle(3);
  Rng rng(derive_seed(0x71E5, 3));
  PointSet grid(3);
  std::uint64_t p = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (int x = 0; x < 8; ++x) {
      for (int y = 0; y < 8; ++y) {
        for (int z = 0; z < 8; ++z) {
          // Id 0 sits on the grid too: a candidate at exactly (r², 0)
          // must lose to the sentinel.
          grid.push_point(std::vector<float>{x / 8.0f, y / 8.0f, z / 8.0f},
                          (p++ * 37) % 1024);
        }
      }
    }
  }
  // Seal 800 into trees (four seals of 200), keep the rest as runs.
  for (std::size_t b = 0; b < grid.size(); b += 100) {
    std::vector<std::uint64_t> rows(std::min<std::size_t>(100, grid.size() - b));
    for (std::uint64_t i = 0; i < rows.size(); ++i) rows[i] = b + i;
    const PointSet batch = grid.extract(rows);
    index.insert(batch);
    oracle.insert(batch);
    if (b + 100 == 800) index.quiesce();
  }
  std::vector<std::uint64_t> doomed;
  for (int e = 0; e < 40; ++e) doomed.push_back(rng.uniform_index(1024));
  EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
  const MutationStats stats = index.stats();
  ASSERT_GE(stats.trees, 2u);
  ASSERT_GT(stats.buffered_points, 0u);
  ASSERT_GT(stats.tombstones, 0u);

  PointSet queries(3);
  for (int q = 0; q < 24; ++q) {
    // Grid points (ties at 0, 1/8, √2/8, ...) and a few off-grid ones.
    const float off = q % 4 == 3 ? 0.03f : 0.0f;
    queries.push_point(
        std::vector<float>{static_cast<float>(q % 8) / 8.0f + off,
                           static_cast<float>((q * 3) % 8) / 8.0f,
                           static_cast<float>((q * 5) % 8) / 8.0f},
        static_cast<std::uint64_t>(q));
  }
  const KdTree local = KdTree::build(oracle.points(), BuildConfig{}, *h.pool);
  BatchWorkspace local_ws;
  NeighborTable local_rows;
  std::vector<float> q(3);
  for (const float radius : {0.125f, 0.25f, 0.2f, 0.0f}) {
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{4}, std::size_t{9}, std::size_t{40}}) {
      const std::string at = "r=" + std::to_string(radius) +
                             " k=" + std::to_string(k);
      index.knn_batch(queries, k, h.results, h.ws, TraversalPolicy::Exact,
                      radius);
      local.query_batch(queries, k, *h.pool, local_rows, local_ws, radius);
      ASSERT_EQ(h.results.size(), queries.size()) << at;
      for (std::uint64_t i = 0; i < queries.size(); ++i) {
        queries.copy_point(i, q.data());
        std::vector<Neighbor> want = oracle.knn(q, k);
        while (!want.empty() && !(want.back().dist2 < radius * radius)) {
          want.pop_back();
        }
        const std::string row = at + " query " + std::to_string(i);
        expect_row_identical(h.results[i], want, row + " vs brute force");
        const auto lr = local_rows[i];
        expect_row_identical(h.results[i],
                             std::vector<Neighbor>(lr.begin(), lr.end()),
                             row + " vs Local");
      }
    }
  }
  EXPECT_THROW(index.knn_batch(queries, 3, h.results, h.ws,
                               TraversalPolicy::Exact, -1.0f),
               panda::Error);
}

}  // namespace
}  // namespace panda::core
