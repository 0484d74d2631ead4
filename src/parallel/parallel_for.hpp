// Loop helpers layered on ThreadPool.
//
// parallel_for_static: contiguous per-thread ranges — used where
// deterministic assignment matters (cooperative histograms, scatter
// phases with precomputed offsets).
// parallel_for_dynamic / for_chunks: atomic chunk self-scheduling over
// the one chunk-claim loop below — used for irregular work (query
// batches, per-subtree build tasks, baseline loops).
//
// Both chunked entry points are templates: the pool job captures one
// pointer to the loop state, which fits std::function's small-object
// buffer, so a fan-out allocates nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::parallel {

namespace detail {

/// The chunk-claim loop: every pool thread claims `grain`-sized chunks
/// of [next, end) until none are left and calls
/// body(thread_id, chunk_begin, chunk_end) on each. The set of chunks is
/// deterministic; which thread runs which chunk is not.
template <typename Body>
struct ChunkLoop {
  const Body* body;
  std::uint64_t end;
  std::uint64_t grain;
  std::atomic<std::uint64_t> next;

  void operator()(int tid) {
    for (;;) {
      // order: relaxed — work-stealing chunk counter; claims need
      // atomicity only, the pool's completion barrier orders results.
      const std::uint64_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      (*body)(tid, lo, std::min(lo + grain, end));
    }
  }
};

}  // namespace detail

/// Self-scheduled chunks of `grain` iterations over [begin, end); calls
/// fn(thread_id, chunk_begin, chunk_end). Chunk-to-thread assignment is
/// nondeterministic; the set of chunks is not. Waits for the team when
/// another caller holds it: a build phase must not collapse onto one
/// thread because a query batch is mid-fan-out.
template <typename Fn>
void parallel_for_dynamic(ThreadPool& pool, std::uint64_t begin,
                          std::uint64_t end, std::uint64_t grain,
                          const Fn& fn) {
  PANDA_CHECK(begin <= end);
  PANDA_CHECK_MSG(grain > 0, "grain must be positive");
  if (begin == end) return;
  detail::ChunkLoop<Fn> loop{&fn, end, std::min(grain, end - begin), {begin}};
  pool.run([l = &loop](int tid) { (*l)(tid); });
}

/// The batch kernels' fan-out over [0, n): calls body(0, 0, n) once on
/// the caller when n <= inline_max, on a size-1 pool, or when another
/// caller holds the team (try_run fails) — scanning on this core beats
/// sleeping behind someone else's kernel (DESIGN.md §8). Otherwise the
/// pool threads claim `grain`-sized chunks as in parallel_for_dynamic.
/// Exceptions thrown by body reach the caller.
template <typename Body>
void for_chunks(ThreadPool& pool, std::uint64_t n, std::uint64_t grain,
                std::uint64_t inline_max, const Body& body) {
  PANDA_CHECK_MSG(grain > 0, "grain must be positive");
  if (n <= inline_max || pool.size() == 1) {
    body(0, std::uint64_t{0}, n);
    return;
  }
  detail::ChunkLoop<Body> loop{&body, n, std::min(grain, n), {0}};
  if (!pool.try_run([l = &loop](int tid) { (*l)(tid); })) {
    body(0, std::uint64_t{0}, n);
  }
}

/// Splits [begin, end) into size() contiguous ranges; calls
/// fn(thread_id, range_begin, range_end) on each thread. Ranges of the
/// same loop are identical across runs (deterministic).
void parallel_for_static(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    const std::function<void(int, std::uint64_t, std::uint64_t)>& fn);

/// Computes the static range of `thread_id` for n items over t threads:
/// the first n % t ranges get one extra item. Exposed for tests and for
/// code that must mirror parallel_for_static's assignment.
std::pair<std::uint64_t, std::uint64_t> static_range(std::uint64_t n,
                                                     int threads,
                                                     int thread_id);

}  // namespace panda::parallel
