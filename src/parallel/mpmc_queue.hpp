// Bounded lock-free multi-producer / multi-consumer ring queue
// (Vyukov's algorithm), the admission primitive of the serving
// frontend (DESIGN.md §8).
//
// Layout: a power-of-two array of cells, each holding a value slot and
// one atomic sequence number. The sequence encodes the cell's state
// relative to the monotonically increasing enqueue/dequeue positions:
//
//   seq == pos            cell is free for the producer claiming pos
//   seq == pos + 1        cell holds the value pushed at pos
//   seq == pos + capacity cell has been consumed and recycled for the
//                         producer claiming pos + capacity
//
// A producer claims a position with one relaxed CAS on enqueue_pos_,
// constructs the value in place, then *publishes* it by storing
// seq = pos + 1 with release order. A consumer observes that store
// with an acquire load, claims the position with a CAS on
// dequeue_pos_, moves the value out, and recycles the cell with a
// release store of seq = pos + capacity. The release/acquire pair on
// the per-cell sequence is the only ordering the value handoff needs:
// the producer's writes to the value happen-before the release store,
// which happens-before the consumer's acquire load — no fences, no
// locks, no per-operation allocation. ThreadSanitizer verifies this
// argument (ci.sh tsan runs test_mpmc_queue and the serve suite).
//
// try_push/try_pop are non-blocking: a full queue fails the push, an
// empty queue fails the pop, and the caller decides the policy —
// serve::QueryService turns these into spin-then-park Block/Reject
// backpressure instead of holding a mutex across the admission path.
//
// A transient false "full" is possible while a consumer is mid-recycle
// on the wrap-around cell; callers that track logical occupancy
// separately (serve::QueryService does) may therefore spin on try_push
// knowing it succeeds as soon as the consumer finishes. This is the
// standard bounded-MPMC trade: the queue is lock-free, not wait-free.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace panda::parallel {

/// One polite busy-wait step: PAUSE-class hint on x86 so a spinning
/// hyperthread yields pipeline slots; plain compiler barrier elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Escalating backoff for bounded spins: cheap PAUSE first, then yield
/// the core — on oversubscribed hosts (ci containers) the thread we
/// are waiting on may need our core to make progress.
inline void spin_backoff(unsigned& spins) {
  if (++spins < 64) {
    cpu_relax();
  } else {
    spins = 0;
    std::this_thread::yield();
  }
}

/// Bounded MPMC FIFO. T must be movable; nothing else is required
/// (values are placement-new constructed on push and destroyed on
/// pop, so T need not be default-constructible).
///
/// Thread safety: any number of concurrent producers and consumers.
/// Construction and destruction are exclusive (no concurrent access).
template <typename T>
class MpmcQueue {
  static_assert(std::is_move_constructible_v<T> &&
                    std::is_move_assignable_v<T>,
                "MpmcQueue values must be movable");

 public:
  /// Capacity is rounded up to the next power of two (>= 2): the ring
  /// index is pos & mask, so the physical size must be a power of two.
  explicit MpmcQueue(std::size_t min_capacity)
      : capacity_(std::bit_ceil(std::max<std::size_t>(min_capacity, 2))),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {
    PANDA_CHECK_MSG(min_capacity >= 1, "MpmcQueue capacity must be >= 1");
    for (std::size_t i = 0; i < capacity_; ++i) {
      // order: relaxed — construction is exclusive; the object is
      // handed to other threads by whatever publishes the queue itself.
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  ~MpmcQueue() {
    // Destruction is exclusive, so every value in [dequeue, enqueue)
    // is fully published (seq == pos + 1). Pending values get their
    // destructors run (promises break, unique_ptrs free) exactly once.
    // order: relaxed — exclusivity means whoever destroys the queue
    // already synchronized with every producer/consumer (thread join).
    const std::uint64_t end = enqueue_pos_.load(std::memory_order_relaxed);
    for (std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
         pos != end; ++pos) {
      cells_[pos & mask_].value()->~T();
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Physical ring size (the rounded-up power of two).
  std::size_t capacity() const { return capacity_; }

  /// Enqueues by move; returns false when the ring is full (or
  /// transiently wrap-blocked, see the header comment).
  bool try_push(T&& value) {
    Cell* cell;
    // order: relaxed loads/CAS on enqueue_pos_ — the position counter
    // only arbitrates *which* producer claims a slot; it carries no
    // data. The value handoff is ordered entirely by the per-cell seq:
    // acquire below pairs with the consumer's recycle release store,
    // making the recycled cell's memory safe to reuse.
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the cell one lap behind is not recycled yet
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    ::new (cell->storage()) T(std::move(value));
    // order: release — publishes the constructed value; pairs with the
    // consumer's acquire load of seq in try_pop_into.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Dequeues into *out; returns false when empty.
  bool try_pop(T& out) { return try_pop_into(&out); }

  /// Racy size estimate (reporting only): claimed pushes minus claimed
  /// pops at one instant; never negative.
  std::size_t approx_size() const {
    // order: relaxed — racy estimate by contract; no decision is made
    // on the value beyond reporting.
    const std::uint64_t e = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t d = dequeue_pos_.load(std::memory_order_relaxed);
    return e > d ? static_cast<std::size_t>(e - d) : 0;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq;
    alignas(alignof(T)) unsigned char raw[sizeof(T)];
    void* storage() { return static_cast<void*>(raw); }
    T* value() { return std::launder(reinterpret_cast<T*>(raw)); }
  };

  bool try_pop_into(T* out) {
    Cell* cell;
    // order: relaxed loads/CAS on dequeue_pos_ — claim arbitration
    // only, as in try_push. The acquire load of seq below pairs with
    // the producer's release publish, ordering the value read.
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) -
                               static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty: the push at pos has not been published
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(*cell->value());
    cell->value()->~T();
    // order: release — recycles the cell for the producer one lap
    // ahead; pairs with try_push's acquire load of seq.
    cell->seq.store(pos + capacity_, std::memory_order_release);
    return true;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  // Producers and consumers advance independent counters; keep them on
  // separate cache lines so claim CASes do not false-share.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace panda::parallel
