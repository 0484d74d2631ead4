#include "parallel/parallel_for.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace panda::parallel {

std::pair<std::uint64_t, std::uint64_t> static_range(std::uint64_t n,
                                                     int threads,
                                                     int thread_id) {
  const std::uint64_t t = static_cast<std::uint64_t>(threads);
  const std::uint64_t id = static_cast<std::uint64_t>(thread_id);
  const std::uint64_t base = n / t;
  const std::uint64_t extra = n % t;
  const std::uint64_t begin = id * base + std::min(id, extra);
  const std::uint64_t len = base + (id < extra ? 1 : 0);
  return {begin, begin + len};
}

void parallel_for_static(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    const std::function<void(int, std::uint64_t, std::uint64_t)>& fn) {
  PANDA_CHECK(begin <= end);
  const std::uint64_t n = end - begin;
  if (n == 0) return;
  pool.run([&](int tid) {
    auto [lo, hi] = static_range(n, pool.size(), tid);
    if (lo < hi) fn(tid, begin + lo, begin + hi);
  });
}

}  // namespace panda::parallel
