// Tests for the bounded lock-free MPMC ring (parallel/mpmc_queue.hpp):
// FIFO order, capacity rounding, full/empty edges, wrap-around over
// many laps, move-only payloads, destruction of pending values, and
// the exactly-once delivery contract under concurrent producers and
// consumers (the property the serving frontend relies on).
#include "parallel/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace panda::parallel {
namespace {

TEST(MpmcQueue, SingleThreadedFifoOrder) {
  MpmcQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.try_push(int(i)));
  for (int i = 0; i < 8; ++i) {
    int value = -1;
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, i);
  }
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(MpmcQueue<int>(65).capacity(), 128u);
}

TEST(MpmcQueue, FullAndEmptyEdges) {
  MpmcQueue<int> queue(4);
  int value = -1;
  EXPECT_FALSE(queue.try_pop(value));  // empty from the start
  EXPECT_EQ(queue.approx_size(), 0u);

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(int(i)));
  EXPECT_EQ(queue.approx_size(), 4u);
  EXPECT_FALSE(queue.try_push(99));  // full: push fails, value survives

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, i);  // the rejected 99 never entered
  }
  EXPECT_FALSE(queue.try_pop(value));
  EXPECT_EQ(queue.approx_size(), 0u);

  // The freed slots are reusable (the ring recycled the cells).
  EXPECT_TRUE(queue.try_push(7));
  ASSERT_TRUE(queue.try_pop(value));
  EXPECT_EQ(value, 7);
}

TEST(MpmcQueue, WraparoundKeepsFifoOverManyLaps) {
  MpmcQueue<int> queue(2);  // tiny ring: every pair of ops wraps
  int expected_pop = 0;
  int next_push = 0;
  for (int lap = 0; lap < 10000; ++lap) {
    EXPECT_TRUE(queue.try_push(int(next_push++)));
    EXPECT_TRUE(queue.try_push(int(next_push++)));
    int value = -1;
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, expected_pop++);
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, expected_pop++);
  }
}

TEST(MpmcQueue, CarriesMoveOnlyValues) {
  MpmcQueue<std::unique_ptr<int>> queue(4);
  EXPECT_TRUE(queue.try_push(std::make_unique<int>(41)));
  EXPECT_TRUE(queue.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(*out, 41);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(*out, 42);
}

TEST(MpmcQueue, DestructorReleasesPendingValues) {
  const auto tracker = std::make_shared<int>(7);
  {
    MpmcQueue<std::shared_ptr<int>> queue(8);
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(queue.try_push(std::shared_ptr<int>(tracker)));
    }
    std::shared_ptr<int> out;
    ASSERT_TRUE(queue.try_pop(out));  // mix a consumed cell in
    EXPECT_EQ(tracker.use_count(), 6);  // tracker + out + 4 pending
  }
  // All pending copies were destroyed exactly once by ~MpmcQueue.
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(MpmcQueue, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 20000;
  constexpr int kTotal = kProducers * kPerProducer;
  // Small ring so producers hit the full edge and every cell wraps
  // hundreds of times — the stressful regime for the seq protocol.
  MpmcQueue<int> queue(64);

  std::atomic<int> popped{0};
  std::vector<std::vector<int>> seen(kConsumers);
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      seen[c].reserve(kTotal);
      while (popped.load(std::memory_order_relaxed) < kTotal) {
        int value = -1;
        if (queue.try_pop(value)) {
          seen[c].push_back(value);
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        unsigned spins = 0;
        while (!queue.try_push(p * kPerProducer + i)) spin_backoff(spins);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every value delivered exactly once...
  std::vector<int> delivery_count(kTotal, 0);
  for (const auto& consumer : seen) {
    for (const int value : consumer) {
      ASSERT_GE(value, 0);
      ASSERT_LT(value, kTotal);
      ++delivery_count[static_cast<std::size_t>(value)];
    }
  }
  for (int value = 0; value < kTotal; ++value) {
    ASSERT_EQ(delivery_count[static_cast<std::size_t>(value)], 1)
        << "value " << value;
  }
  // ...and per-producer FIFO order held within each consumer's stream.
  for (const auto& consumer : seen) {
    std::vector<int> last(kProducers, -1);
    for (const int value : consumer) {
      const int producer = value / kPerProducer;
      EXPECT_GT(value, last[static_cast<std::size_t>(producer)]);
      last[static_cast<std::size_t>(producer)] = value;
    }
  }
  int value = -1;
  EXPECT_FALSE(queue.try_pop(value));  // fully drained
}

}  // namespace
}  // namespace panda::parallel
