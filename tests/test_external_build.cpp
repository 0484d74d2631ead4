// Tests for the out-of-core build (KdTree::build_external, DESIGN.md
// §11): under a memory budget that forces multi-chunk spilling, exact
// queries on the mapped result are id-exact against an in-RAM build
// of the same points — the deterministic (dist², id) tie order makes
// the answer independent of tree shape.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/index.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "index_bytes.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

/// Budget that forces the splitter to at least `min_chunks` chunks
/// for `n` points of `dims` dimensions (mirrors the builder's
/// per-point estimate, which choose_chunk_count rounds up to a power
/// of two).
std::uint64_t budget_for_chunks(std::uint64_t n, std::size_t dims,
                                std::uint64_t min_chunks) {
  const std::uint64_t per_point =
      3 * (dims * sizeof(float) + 2 * sizeof(std::uint64_t));
  return n * per_point / min_chunks;
}

void expect_identical_queries(const KdTree& in_ram, const KdTree& external,
                              const data::PointSet& queries, std::size_t k) {
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    const auto a = in_ram.query(q, k);
    const auto b = external.query(q, k);
    ASSERT_EQ(a.size(), b.size()) << "query " << i << " k=" << k;
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].id, b[j].id) << "query " << i << " rank " << j;
      ASSERT_EQ(a[j].dist2, b[j].dist2) << "query " << i << " rank " << j;
    }
  }
}

class ExternalBuild : public ::testing::TestWithParam<const char*> {};

TEST_P(ExternalBuild, IdExactAgainstInRamBuild) {
  const std::uint64_t n = 20000;
  const auto gen = data::make_generator(GetParam(), 2016);
  const data::PointSet points = gen->generate_all(n);
  const data::PointSet queries =
      data::make_generator(GetParam(), 99)->generate_all(200);
  parallel::ThreadPool pool(4);

  const KdTree in_ram = KdTree::build(points, BuildConfig{}, pool);

  const std::string out = ::testing::TempDir() + "/panda_ext_" +
                          std::string(GetParam()) + ".kdt";
  ExternalBuildOptions options;
  // >= 4 chunks: the stitch path (splitter tree, routing, stub slots,
  // offset rebasing) is what is under test, not the 1-chunk shortcut.
  options.memory_budget_bytes = budget_for_chunks(n, points.dims(), 4);
  options.out_path = out;
  const data::PointSetView view(points);
  const KdTree external =
      KdTree::build_external(view, BuildConfig{}, pool, options);

  EXPECT_TRUE(external.mapped());
  EXPECT_EQ(external.size(), in_ram.size());
  EXPECT_EQ(external.dims(), in_ram.dims());

  for (const std::size_t k : {1u, 5u, 32u}) {
    expect_identical_queries(in_ram, external, queries, k);
  }

  // The written file is a self-sufficient v4 index: a fresh zero-copy
  // open answers identically.
  const KdTree reopened = KdTree::open_mmap(out);
  expect_identical_queries(in_ram, reopened, queries, 5);
  std::remove(out.c_str());
}

INSTANTIATE_TEST_SUITE_P(Distributions, ExternalBuild,
                         ::testing::Values("uniform", "gmm", "dupes"));

TEST(ExternalBuildFiles, TwoBuildsAreByteIdentical) {
  // The stitched header and the streamed leaf records carry no
  // indeterminate padding: two chunked builds of one point set write
  // the same bytes.
  const std::uint64_t n = 20000;
  const data::PointSet points =
      data::make_generator("gmm", 2017)->generate_all(n);
  parallel::ThreadPool pool(2);
  const data::PointSetView view(points);
  std::vector<char> bytes[2];
  for (int run = 0; run < 2; ++run) {
    const std::string out = ::testing::TempDir() + "/panda_ext_repro_" +
                            std::to_string(run) + ".kdt";
    ExternalBuildOptions options;
    options.memory_budget_bytes = budget_for_chunks(n, points.dims(), 4);
    options.out_path = out;
    KdTree::build_external(view, BuildConfig{}, pool, options);
    bytes[run] = testing::read_bytes(out);
    std::remove(out.c_str());
  }
  testing::expect_zero_padding(bytes[0]);
  EXPECT_TRUE(bytes[0] == bytes[1]);
}

TEST(ExternalBuildApi, IndexBuildHonorsTheMemoryBudget) {
  const auto gen = data::make_generator("cosmo", 7);
  const data::PointSet points = gen->generate_all(10000);
  const std::string out = ::testing::TempDir() + "/panda_ext_api.kdt";

  IndexOptions options;
  options.memory_budget_bytes = budget_for_chunks(10000, points.dims(), 4);
  options.external_index_path = out;
  const auto external = Index::build(points, options);
  const auto in_ram = Index::build(points, IndexOptions{});

  std::vector<float> q(points.dims());
  for (std::uint64_t i = 0; i < 100; ++i) {
    points.copy_point(i * 97 % points.size(), q.data());
    const auto a = in_ram->knn(q, 5);
    const auto b = external->knn(q, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].id, b[j].id);
      ASSERT_EQ(a[j].dist2, b[j].dist2);
    }
  }
  std::remove(out.c_str());
}

TEST(ExternalBuildApi, BudgetWithoutOutputPathIsRejected) {
  const data::PointSet points =
      data::make_generator("uniform", 3)->generate_all(5000);
  IndexOptions options;
  options.memory_budget_bytes = 1024;  // forces the external path
  EXPECT_THROW(Index::build(points, options), Error);
}

TEST(ExternalBuildApi, GenerousBudgetStaysInRam) {
  // Estimate under budget: the plain in-RAM build runs and no index
  // file is required or written.
  const data::PointSet points =
      data::make_generator("uniform", 4)->generate_all(2000);
  IndexOptions options;
  options.memory_budget_bytes = 1ull << 32;
  const auto index = Index::build(points, options);
  EXPECT_EQ(index->size(), 2000u);
}

}  // namespace
}  // namespace panda::core
