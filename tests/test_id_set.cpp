// Oracle tests for the live index's id bookkeeping (core/id_set.hpp,
// DESIGN.md §12.6): FlatIdSet must behave exactly like
// std::unordered_set under long insert/erase/contains streams,
// sorted_unique_ids must agree with std::sort and reject duplicates, and
// the position-carrying sort_by_id must agree with std::stable_sort.
// The id families are the ones a hash or a digit-skipping radix sort
// gets wrong first: 0 and ~0, sequential runs, multiples of 2^20, and
// ids that differ only in their top byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "core/id_set.hpp"

namespace panda::core {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

/// Applies one operation to both sets and checks they agree on its
/// result and on the size.
class Lockstep {
 public:
  void insert(std::uint64_t id) {
    ASSERT_EQ(flat_.insert(id), oracle_.insert(id).second) << "insert " << id;
    ASSERT_EQ(flat_.size(), oracle_.size());
  }
  void erase(std::uint64_t id) {
    ASSERT_EQ(flat_.erase(id), oracle_.erase(id) == 1) << "erase " << id;
    ASSERT_EQ(flat_.size(), oracle_.size());
  }
  void contains(std::uint64_t id) const {
    ASSERT_EQ(flat_.contains(id), oracle_.count(id) == 1) << "contains " << id;
  }
  /// Every oracle member is found, and every id of `probe` (members or
  /// not) gets the oracle's answer.
  void check_all(const std::vector<std::uint64_t>& probe) const {
    for (const std::uint64_t id : oracle_) {
      ASSERT_TRUE(flat_.contains(id)) << id;
    }
    for (const std::uint64_t id : probe) contains(id);
  }

  FlatIdSet& flat() { return flat_; }

 private:
  FlatIdSet flat_;
  std::unordered_set<std::uint64_t> oracle_;
};

/// The adversarial id families, `n` of each.
std::vector<std::uint64_t> family_ids(std::uint64_t n) {
  std::vector<std::uint64_t> ids = {0, kMax, 1, kMax - 1};
  for (std::uint64_t i = 0; i < n; ++i) {
    ids.push_back(i);                          // sequential run from 0
    ids.push_back((std::uint64_t{1} << 40) + i);  // sequential, high base
    ids.push_back(i << 20);                    // multiples of 2^20
    ids.push_back((i & 0xff) << 56);           // top byte only
    ids.push_back(((i & 0xff) << 56) | 0x1234);
  }
  return ids;
}

TEST(FlatIdSet, MatchesUnorderedSetUnderRandomStream) {
  std::mt19937_64 rng(20261017);
  // Pool: the adversarial families plus random 64-bit ids, so the
  // stream revisits ids (duplicate inserts, repeat erases) often.
  std::vector<std::uint64_t> pool = family_ids(600);
  for (int i = 0; i < 3000; ++i) pool.push_back(rng());
  Lockstep s;
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> op(0, 9);
  std::size_t peak = 0;
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t id = pool[pick(rng)];
    // Insert-heavy first half (grows through several doublings), then
    // erase-heavy (exercises backward shift across wrapped runs).
    const int o = op(rng);
    if (o < (step < 30000 ? 6 : 3)) {
      s.insert(id);
    } else if (o < 8) {
      s.erase(id);
    } else {
      s.contains(id);
    }
    peak = std::max(peak, s.flat().size());
    if (step % 5000 == 4999) s.check_all(pool);
  }
  EXPECT_GT(peak, 1000u);  // grew from 16 slots through several doublings
  s.check_all(pool);
}

TEST(FlatIdSet, EveryFamilyInsertsErasesAndReinserts) {
  for (const std::uint64_t n : {1u, 7u, 256u, 5000u}) {
    Lockstep s;
    const std::vector<std::uint64_t> ids = family_ids(n);
    for (const std::uint64_t id : ids) s.insert(id);
    s.check_all(ids);
    // Erase every other distinct id, then check survivors and holes.
    for (std::size_t i = 0; i < ids.size(); i += 2) s.erase(ids[i]);
    s.check_all(ids);
    for (const std::uint64_t id : ids) s.insert(id);
    s.check_all(ids);
    for (const std::uint64_t id : ids) s.erase(id);
    EXPECT_TRUE(s.flat().empty());
    s.check_all(ids);
  }
}

TEST(FlatIdSet, ZeroAndMaxAreOrdinaryIds) {
  FlatIdSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(kMax));
  EXPECT_FALSE(set.erase(kMax));
  EXPECT_TRUE(set.insert(kMax));
  EXPECT_FALSE(set.insert(kMax));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(kMax));
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.erase(kMax));
  EXPECT_FALSE(set.contains(kMax));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatIdSet, ReserveKeepsContents) {
  Lockstep s;
  const std::vector<std::uint64_t> ids = family_ids(100);
  for (const std::uint64_t id : ids) s.insert(id);
  s.flat().reserve(100000);
  s.check_all(ids);
  s.flat().reserve(10);  // never shrinks
  s.check_all(ids);
}

/// sorted_unique_ids on `ids` equals std::sort of the same ids.
void expect_sorts_like_std(std::vector<std::uint64_t> ids) {
  std::vector<std::uint64_t> want = ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sorted_unique_ids(std::move(ids), "test"), want);
}

TEST(SortedUniqueIds, MatchesStdSort) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> random(50000);
  for (auto& id : random) id = rng();
  expect_sorts_like_std(random);

  std::vector<std::uint64_t> top_byte;
  for (std::uint64_t b = 0; b < 256; ++b) top_byte.push_back(b << 56);
  std::shuffle(top_byte.begin(), top_byte.end(), rng);
  expect_sorts_like_std(top_byte);

  // Sequential ids below 2^17 (three digits differ, five are skipped),
  // then the same plus ~0, which makes every digit differ.
  std::vector<std::uint64_t> sequential(100000);
  for (std::uint64_t i = 0; i < sequential.size(); ++i) {
    sequential[i] = sequential.size() - 1 - i;
  }
  expect_sorts_like_std(sequential);
  sequential.push_back(kMax);
  std::shuffle(sequential.begin(), sequential.end(), rng);
  expect_sorts_like_std(sequential);

  // Ids that differ in one bit: each digit must be sorted on whichever
  // of its bits differ.
  for (int b = 0; b < 64; ++b) {
    expect_sorts_like_std({std::uint64_t{1} << b, 0});
  }

  std::vector<std::uint64_t> strided;
  for (std::uint64_t i = 0; i < 4000; ++i) strided.push_back((i * 7919) << 20);
  std::shuffle(strided.begin(), strided.end(), rng);
  expect_sorts_like_std(strided);

  expect_sorts_like_std({});
  expect_sorts_like_std({42});
  expect_sorts_like_std({kMax, 0});
}

TEST(SortById, CarriesPositionsLikeStdSort) {
  // Shuffled ids that differ in every one of the eight digits, 0 and ~0
  // included; each pair's position must travel with its id.
  std::mt19937_64 rng(13);
  std::vector<std::uint64_t> ids = {0, kMax};
  for (int digit = 0; digit < 8; ++digit) {
    for (std::uint64_t v = 1; v < 256; v += 17) ids.push_back(v << (8 * digit));
  }
  for (int i = 0; i < 20000; ++i) ids.push_back(rng());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<IdPosition> pairs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) pairs[i] = {ids[i], i * 3 + 1};
  std::vector<IdPosition> want = pairs;
  std::sort(want.begin(), want.end(),
            [](const IdPosition& a, const IdPosition& b) { return a.id < b.id; });
  sort_by_id(pairs);
  ASSERT_EQ(pairs.size(), want.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i].id, want[i].id) << i;
    ASSERT_EQ(pairs[i].position, want[i].position) << i;
  }

  std::vector<IdPosition> none;
  sort_by_id(none);
  EXPECT_TRUE(none.empty());
}

TEST(SortById, EqualIdsKeepTheirInputOrder) {
  // Stable like std::stable_sort: the forest relies on no order among
  // equal ids, but a stable sort keeps any caller's tie order defined.
  std::mt19937_64 rng(17);
  std::vector<IdPosition> pairs(5000);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::uint64_t high = (rng() % 64) << 40;
    pairs[i] = {high | (rng() % 3), i};
  }
  std::vector<IdPosition> want = pairs;
  std::stable_sort(
      want.begin(), want.end(),
      [](const IdPosition& a, const IdPosition& b) { return a.id < b.id; });
  sort_by_id(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i].id, want[i].id) << i;
    ASSERT_EQ(pairs[i].position, want[i].position) << i;
  }
}

TEST(SortedUniqueIds, DuplicateThrowsNamingTheCaller) {
  std::vector<std::uint64_t> ids = {9, 1u << 20, 3, kMax, 1u << 20, 0};
  try {
    sorted_unique_ids(ids, "MutableIndex seal");
    FAIL() << "duplicate accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MutableIndex seal"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate id 1048576"), std::string::npos) << what;
  }
  EXPECT_THROW(sorted_unique_ids({kMax, kMax}, "test"), Error);
  EXPECT_THROW(sorted_unique_ids({0, 5, 0}, "test"), Error);
}

}  // namespace
}  // namespace panda::core
