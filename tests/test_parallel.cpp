// Unit tests for src/parallel: pool execution, loop helpers, range
// math, determinism, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::parallel {
namespace {

TEST(ThreadPool, RunsAllThreadIdsExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(threads));
    pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1) << t;
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int j = 0; j < 100; ++j) {
    pool.run([&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 400);
}

// Pool sharing (the serving pattern: several service workers driving
// batch kernels on one pool): concurrent run() callers must serialize
// — without the caller mutex, two simultaneous jobs race on the shared
// job slot and some invocations run the wrong job or are lost.
TEST(ThreadPool, ConcurrentCallersSerializeJobs) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  std::atomic<bool> ok{true};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int j = 0; j < 50; ++j) {
        std::vector<std::atomic<int>> hits(4);
        pool.run([&](int tid) {
          hits[static_cast<std::size_t>(tid)]++;
          total++;
        });
        // Each call must have run exactly this caller's job on every
        // thread id exactly once.
        for (int t = 0; t < 4; ++t) {
          if (hits[static_cast<std::size_t>(t)].load() != 1) ok = false;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(total.load(), 4u * 50u * 4u);
}

// try_run: non-blocking team acquisition for callers that can fall
// back to inline execution (the serving workers' "no idle cores" path).
TEST(ThreadPool, TryRunExecutesWhenTeamIsFree) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  EXPECT_TRUE(pool.try_run([&](int tid) {
    hits[static_cast<std::size_t>(tid)]++;
  }));
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1) << t;
  }
}

TEST(ThreadPool, TryRunFailsWhileAnotherCallerHoldsTheTeam) {
  ThreadPool pool(2);
  std::atomic<bool> job_started{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.run([&](int tid) {
      if (tid == 0) job_started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!job_started.load()) std::this_thread::yield();
  EXPECT_FALSE(pool.try_run([](int) {}));  // busy: must not block
  release.store(true);
  holder.join();
  // And usable again once the team frees up.
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.try_run([&](int) { count++; }));
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, TryRunOnSizeOnePoolAlwaysRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int j = 0; j < 10; ++j) {
    EXPECT_TRUE(pool.try_run([&](int tid) {
      EXPECT_EQ(tid, 0);
      count++;
    }));
  }
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool pool(0), panda::Error);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([&](int tid) {
    if (tid == 2) throw panda::Error("boom");
  }),
               panda::Error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.run([&](int) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, PropagatesCallerThreadException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([&](int tid) {
    if (tid == 0) throw panda::Error("caller failure");
  }),
               panda::Error);
}

TEST(StaticRange, PartitionsWholeRangeContiguously) {
  for (const std::uint64_t n : {0ull, 1ull, 7ull, 100ull, 101ull}) {
    for (const int threads : {1, 2, 3, 8}) {
      std::uint64_t expected_begin = 0;
      for (int t = 0; t < threads; ++t) {
        const auto [lo, hi] = static_range(n, threads, t);
        EXPECT_EQ(lo, expected_begin);
        expected_begin = hi;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(StaticRange, BalancedWithinOne) {
  const std::uint64_t n = 103;
  const int threads = 8;
  for (int t = 0; t < threads; ++t) {
    const auto [lo, hi] = static_range(n, threads, t);
    const std::uint64_t len = hi - lo;
    EXPECT_GE(len, n / threads);
    EXPECT_LE(len, n / threads + 1);
  }
}

TEST(ParallelForStatic, VisitsEveryIndexOnce) {
  ThreadPool pool(6);
  const std::uint64_t n = 10007;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_static(pool, 0, n, [&](int, std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t i = a; i < b; ++i) visits[i]++;
  });
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForStatic, HandlesNonZeroBase) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  parallel_for_static(pool, 100, 200,
                      [&](int, std::uint64_t a, std::uint64_t b) {
                        std::uint64_t local = 0;
                        for (std::uint64_t i = a; i < b; ++i) local += i;
                        sum += local;
                      });
  EXPECT_EQ(sum.load(), (100ull + 199ull) * 100ull / 2ull);
}

TEST(ParallelForStatic, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  parallel_for_static(pool, 5, 5,
                      [&](int, std::uint64_t, std::uint64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForDynamic, VisitsEveryIndexOnce) {
  ThreadPool pool(6);
  const std::uint64_t n = 5003;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_dynamic(pool, 0, n, 17,
                       [&](int, std::uint64_t a, std::uint64_t b) {
                         for (std::uint64_t i = a; i < b; ++i) visits[i]++;
                       });
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForDynamic, ChunksRespectGrain) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::uint64_t> sizes;
  parallel_for_dynamic(pool, 0, 100, 7,
                       [&](int, std::uint64_t a, std::uint64_t b) {
                         std::lock_guard<std::mutex> lock(mutex);
                         sizes.push_back(b - a);
                       });
  std::uint64_t total = 0;
  for (const auto s : sizes) {
    EXPECT_LE(s, 7u);
    total += s;
  }
  EXPECT_EQ(total, 100u);
}

TEST(ParallelForDynamic, RejectsZeroGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for_dynamic(pool, 0, 10, 0,
                                    [](int, std::uint64_t, std::uint64_t) {}),
               panda::Error);
}

// for_chunks: the fan-out of every batch kernel. Each call is
// recorded as (caller?, begin, end) so the tests can tell an inline run
// from a fanned-out one.
struct ChunkLog {
  struct Call {
    bool on_caller;
    std::uint64_t begin;
    std::uint64_t end;
  };
  std::mutex mutex;
  std::vector<Call> calls;
  std::thread::id caller = std::this_thread::get_id();

  auto body() {
    return [this](int, std::uint64_t a, std::uint64_t b) {
      std::lock_guard<std::mutex> lock(mutex);
      calls.push_back({std::this_thread::get_id() == caller, a, b});
    };
  }
};

TEST(ForChunks, VisitsEveryIndexOnceAndRespectsGrain) {
  const std::uint64_t grain = 17;
  for (const int threads : {1, 2, 6}) {
    ThreadPool pool(threads);
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, grain, grain + 1,
          std::uint64_t{5003}}) {
      for (const std::uint64_t inline_max :
           {std::uint64_t{0}, std::uint64_t{64}}) {
        const std::string at = "threads " + std::to_string(threads) +
                               " n " + std::to_string(n) + " inline_max " +
                               std::to_string(inline_max);
        ChunkLog log;
        std::vector<std::atomic<int>> visits(n);
        const auto record = log.body();
        for_chunks(pool, n, grain, inline_max,
                   [&](int tid, std::uint64_t a, std::uint64_t b) {
                     record(tid, a, b);
                     for (std::uint64_t i = a; i < b; ++i) visits[i]++;
                   });
        for (std::uint64_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i].load(), 1) << at << " index " << i;
        }
        if (n <= inline_max || threads == 1) {
          ASSERT_EQ(log.calls.size(), 1u) << at;
          EXPECT_TRUE(log.calls[0].on_caller) << at;
          EXPECT_EQ(log.calls[0].begin, 0u) << at;
          EXPECT_EQ(log.calls[0].end, n) << at;
        } else {
          for (const auto& c : log.calls) {
            EXPECT_LT(c.begin, c.end) << at;
            EXPECT_LE(c.end - c.begin, grain) << at;
          }
        }
      }
    }
  }
}

TEST(ForChunks, AtOrBelowInlineMaxRunsOnceOnTheCaller) {
  ThreadPool pool(4);
  ChunkLog log;
  for_chunks(pool, 64, 1, 64, log.body());
  ASSERT_EQ(log.calls.size(), 1u);
  EXPECT_TRUE(log.calls[0].on_caller);
  EXPECT_EQ(log.calls[0].begin, 0u);
  EXPECT_EQ(log.calls[0].end, 64u);
}

// Another caller holds the team (the setup of
// ThreadPool.TryRunFailsWhileAnotherCallerHoldsTheTeam): the batch must
// not wait for it, and one inline call covers the whole range.
TEST(ForChunks, BusyTeamRunsTheWholeRangeInline) {
  ThreadPool pool(2);
  std::atomic<bool> job_started{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.run([&](int tid) {
      if (tid == 0) job_started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!job_started.load()) std::this_thread::yield();
  ChunkLog log;
  for_chunks(pool, 1000, 10, 0, log.body());
  release.store(true);
  holder.join();
  ASSERT_EQ(log.calls.size(), 1u);
  EXPECT_TRUE(log.calls[0].on_caller);
  EXPECT_EQ(log.calls[0].begin, 0u);
  EXPECT_EQ(log.calls[0].end, 1000u);
}

TEST(ForChunks, ChunkExceptionReachesTheCaller) {
  ThreadPool pool(4);
  const auto throw_at_500 = [](int, std::uint64_t a, std::uint64_t b) {
    if (a <= 500 && 500 < b) throw panda::Error("chunk failure");
  };
  EXPECT_THROW(for_chunks(pool, 1000, 10, 0, throw_at_500), panda::Error);
  EXPECT_THROW(for_chunks(pool, 1000, 10, 1000, throw_at_500), panda::Error);
  // The pool stays usable afterwards.
  std::atomic<std::uint64_t> visited{0};
  for_chunks(pool, 1000, 10, 0, [&](int, std::uint64_t a, std::uint64_t b) {
    visited += b - a;
  });
  EXPECT_EQ(visited.load(), 1000u);
}

TEST(ForChunks, RejectsZeroGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(
      for_chunks(pool, 10, 0, 0, [](int, std::uint64_t, std::uint64_t) {}),
      panda::Error);
}

class PoolSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PoolSizeSweep, ParallelForMatchesSerialAtAnyWidth) {
  const int threads = GetParam();
  ThreadPool pool(threads);
  const std::uint64_t n = 4096;
  std::vector<std::uint64_t> out(n, 0);
  parallel_for_static(pool, 0, n, [&](int, std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t i = a; i < b; ++i) out[i] = i * i;
  });
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

INSTANTIATE_TEST_SUITE_P(Widths, PoolSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 24));

}  // namespace
}  // namespace panda::parallel
