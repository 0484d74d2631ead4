// Id bookkeeping for the live index (DESIGN.md §12.6): a flat
// open-addressing set of 64-bit ids and a linear-time id sort.
//
// core::MutableIndex asks two kinds of id question. "Is this id live
// anywhere?" (insert admission, erase) goes to one FlatIdSet; "which
// container holds this id?" (erase routing, merge residuals) goes to
// the per-container sorted lists that sorted_unique_ids builds. Both
// run once per id when a seeded or recovered index opens, so both are
// linear and allocate O(1) times, whatever the id count. The same
// radix sort, carrying a position beside each id, puts the live set in
// id order for the self-join's row keys and the compaction and save
// builds.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace panda::core {

/// A set of uint64_t ids in one flat array: linear probing,
/// backward-shift erase (no tombstone slots, so probe runs never
/// lengthen under an insert/erase stream), power-of-two capacity, grown
/// at a load of 3/4. Every 64-bit value is storable: the value that
/// marks an empty slot is kept out of the array and tracked by a flag.
class FlatIdSet {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Sizes the table for `n` ids at once, so filling it to n never
  /// rehashes.
  void reserve(std::size_t n) {
    const std::size_t capacity = capacity_for(n);
    if (capacity > slots_.size()) rehash(capacity);
  }

  bool contains(std::uint64_t id) const {
    if (id == kEmpty) return has_empty_id_;
    if (slots_.empty()) return false;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      if (slots_[i] == id) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// Adds `id`; false (and no change) if it was already present.
  bool insert(std::uint64_t id) {
    if (id == kEmpty) {
      if (has_empty_id_) return false;
      has_empty_id_ = true;
      ++size_;
      return true;
    }
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t i = home(id);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i] == id) return false;
    }
    const std::size_t stored = size_ - (has_empty_id_ ? 1 : 0);
    if ((stored + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
      i = home(id);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    }
    slots_[i] = id;
    ++size_;
    return true;
  }

  /// Removes `id`; false if it was absent.
  bool erase(std::uint64_t id) {
    if (id == kEmpty) {
      if (!has_empty_id_) return false;
      has_empty_id_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = home(id);
    for (; slots_[hole] != id; hole = (hole + 1) & mask_) {
      if (slots_[hole] == kEmpty) return false;
    }
    // Backward shift: walk the rest of the probe run and move into the
    // hole every id whose home slot lies cyclically at or before it, so
    // each id stays reachable from its home without a tombstone.
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(slots_[j])) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  /// The smallest power of two that holds n ids at a load <= 3/4.
  static std::size_t capacity_for(std::size_t n) {
    return std::bit_ceil(std::max(kMinCapacity, (n * 4 + 2) / 3));
  }

  /// Fold the high half into the low one, then keep the top bits of a
  /// Fibonacci product: sequential ids, multiples of large powers of
  /// two and ids that differ only in their top byte all spread.
  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>(
        ((id ^ (id >> 32)) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old(capacity, kEmpty);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const std::uint64_t id : old) {
      if (id == kEmpty) continue;
      std::size_t i = home(id);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = id;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;  // ids held, the out-of-array one included
  bool has_empty_id_ = false;
};

/// Sorts `items` ascending by the 64-bit key(item): a stable LSD radix
/// sort over 8-bit digits that skips every digit all keys share (keys
/// below 2^24 take at most three passes, not eight). One read counts
/// every remaining digit's histogram, then each digit takes one scatter
/// pass. Linear in items.size(); items with equal keys keep their input
/// order. The passes ping-pong between `items` and the caller's
/// `scratch` (the two buffers may trade places), so once both hold
/// items.size() entries of capacity the sort allocates nothing.
template <typename T, typename Key>
void radix_sort_by_key(std::vector<T>& items, std::vector<T>& scratch,
                       const Key& key) {
  if (items.empty()) return;
  const std::uint64_t first = key(items.front());
  std::uint64_t differ = 0;
  for (const T& item : items) differ |= key(item) ^ first;
  std::array<int, 8> shifts{};
  std::size_t digits = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) != 0) shifts[digits++] = shift;
  }
  std::array<std::array<std::size_t, 256>, 8> offset{};
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (std::size_t p = 0; p < digits; ++p) {
      ++offset[p][(k >> shifts[p]) & 0xff];
    }
  }
  for (std::size_t p = 0; p < digits; ++p) {
    std::size_t sum = 0;
    for (std::size_t& slot : offset[p]) sum += std::exchange(slot, sum);
    scratch.resize(items.size());
    for (const T& item : items) {
      scratch[offset[p][(key(item) >> shifts[p]) & 0xff]++] = item;
    }
    items.swap(scratch);
  }
}

/// radix_sort_by_key with a scratch of its own: one allocation per
/// call.
template <typename T, typename Key>
void radix_sort_by_key(std::vector<T>& items, const Key& key) {
  std::vector<T> scratch;
  radix_sort_by_key(items, scratch, key);
}

/// An id with the position it came from (a point index, a self-join
/// schedule slot), carried through radix_sort_by_key.
struct IdPosition {
  std::uint64_t id = 0;
  std::uint64_t position = 0;
};

/// Sorts `pairs` ascending by id (radix_sort_by_key).
inline void sort_by_id(std::vector<IdPosition>& pairs) {
  radix_sort_by_key(pairs, [](const IdPosition& p) { return p.id; });
}

/// `ids` ascending (radix_sort_by_key). Throws panda::Error naming
/// `caller` on a duplicate (a container's ids must be unique for the
/// live set to mean anything).
inline std::vector<std::uint64_t> sorted_unique_ids(
    std::vector<std::uint64_t> ids, std::string_view caller) {
  radix_sort_by_key(ids, [](std::uint64_t id) { return id; });
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  PANDA_CHECK_MSG(dup == ids.end(), caller << ": duplicate id " << *dup);
  return ids;
}

}  // namespace panda::core
