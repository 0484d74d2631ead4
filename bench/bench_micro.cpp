// Microbenchmarks (google-benchmark) of PANDA's hot kernels:
// bucket distance computation (SIMD SoA vs scalar reference), the
// sub-interval histogram search vs binary search (the paper's 42 %
// construction optimization), the candidate heap, and single-query
// tree traversal.
#include <benchmark/benchmark.h>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "core/kdtree.hpp"
#include "core/knn_heap.hpp"
#include "data/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/distance.hpp"
#include "simd/interval_search.hpp"

namespace {

using namespace panda;

void BM_BucketDistancesSimd(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t count = 32;
  const std::size_t stride = simd::padded_count(count);
  Rng rng(1);
  AlignedVector<float> bucket(stride * dims, simd::kPadSentinel);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) {
      bucket[d * stride + i] = rng.uniform_float();
    }
  }
  std::vector<float> query(dims, 0.5f);
  std::vector<float> out(stride);
  for (auto _ : state) {
    simd::squared_distances_soa(query.data(), bucket.data(), stride, stride,
                                dims, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BucketDistancesSimd)->Arg(3)->Arg(10)->Arg(15);

void BM_BucketDistancesReference(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  const std::size_t count = 32;
  const std::size_t stride = simd::padded_count(count);
  Rng rng(1);
  AlignedVector<float> bucket(stride * dims, simd::kPadSentinel);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) {
      bucket[d * stride + i] = rng.uniform_float();
    }
  }
  std::vector<float> query(dims, 0.5f);
  std::vector<float> out(stride);
  for (auto _ : state) {
    simd::squared_distances_reference(query.data(), bucket.data(), stride,
                                      count, dims, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BucketDistancesReference)->Arg(3)->Arg(10)->Arg(15);

void BM_IntervalSearchSubInterval(benchmark::State& state) {
  const std::size_t boundaries_n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> boundaries(boundaries_n);
  for (auto& b : boundaries) b = rng.uniform_float();
  std::sort(boundaries.begin(), boundaries.end());
  const simd::IntervalSearcher searcher(boundaries);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.uniform_float();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.bin(values[i]));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_IntervalSearchSubInterval)->Arg(256)->Arg(1024);

void BM_IntervalSearchBinary(benchmark::State& state) {
  const std::size_t boundaries_n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> boundaries(boundaries_n);
  for (auto& b : boundaries) b = rng.uniform_float();
  std::sort(boundaries.begin(), boundaries.end());
  const simd::IntervalSearcher searcher(boundaries);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.uniform_float();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.bin_binary_search(values[i]));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_IntervalSearchBinary)->Arg(256)->Arg(1024);

void BM_KnnHeapOffer(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> values(8192);
  for (auto& v : values) v = rng.uniform_float();
  for (auto _ : state) {
    core::KnnHeap heap(k);
    for (std::size_t i = 0; i < values.size(); ++i) {
      heap.offer(values[i], i);
    }
    benchmark::DoNotOptimize(heap.bound());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_KnnHeapOffer)->Arg(5)->Arg(32);

void BM_SingleQuery(benchmark::State& state) {
  const auto gen = data::make_generator("cosmo", 4);
  const data::PointSet points = gen->generate_all(200000);
  parallel::ThreadPool pool(8);
  const core::KdTree tree =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  const data::PointSet queries = gen->generate_all(1024);
  std::vector<float> q(3);
  std::size_t i = 0;
  for (auto _ : state) {
    queries.copy_point(i, q.data());
    benchmark::DoNotOptimize(tree.query(q, 5));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_SingleQuery);

}  // namespace

BENCHMARK_MAIN();
