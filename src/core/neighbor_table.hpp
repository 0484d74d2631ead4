// Flat neighbor-result arena: the native result type of the batched
// query hot path (DESIGN.md §9).
//
// A NeighborTable holds the results of one batch of queries as a
// single contiguous Neighbor array plus per-query offset/count
// bookkeeping — no vector-of-vectors, no per-query allocation. The
// arena is AlignedVector-backed and only ever grows, so a table reused
// across batches touches the allocator zero times in steady state.
//
// Two fill disciplines cover the repository's engines:
//
//   top-k mode (reset_topk) — every row owns a fixed stride of k slots
//     at arena[i * k, i * k + k); producers write rows in any order
//     (each row's slots are private, so parallel workers never race)
//     and record the live prefix with set_count. This is the shape of
//     query_sq_batch / query_batch and the distributed KNN engines.
//
//   rows mode (reset_rows) — variable-length rows appended in query
//     order, offsets recorded as the arena grows. This is the shape of
//     the radius paths, whose per-query result counts are unbounded.
//
// Reads are uniform across modes: row(i) is the ascending-sorted
// (dist², id) span of query i. to_vectors() materializes the classic
// vector-of-vectors for tests and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "core/knn_heap.hpp"

namespace panda::core {

class NeighborTable {
 public:
  NeighborTable() = default;

  /// Number of queries (rows) in the table.
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Sum of all row counts. Computed on demand in top-k mode: rows
  /// are written concurrently by pool threads, so the table keeps no
  /// shared accumulator for them (set_count touches only the row's
  /// private slot).
  std::size_t total() const {
    if (mode_ == Mode::Rows) return arena_used_;
    std::size_t t = 0;
    for (std::size_t i = 0; i < rows_; ++i) t += counts_[i];
    return t;
  }

  /// Fixed-stride slots of k: prepares `n` rows, all counts zero. The
  /// arena grows monotonically — repeated resets at steady sizes are
  /// allocation-free. Slot contents beyond each row's count are
  /// unspecified (stale from earlier batches).
  void reset_topk(std::size_t n, std::size_t k) {
    PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
    mode_ = Mode::TopK;
    rows_ = n;
    stride_ = k;
    if (arena_.size() < n * k) arena_.resize(n * k);
    if (counts_.size() < n) counts_.resize(n);
    std::fill(counts_.begin(), counts_.begin() + static_cast<std::ptrdiff_t>(n),
              0u);
  }

  /// Variable-length rows appended in order 0..n-1 via append_row.
  void reset_rows(std::size_t n) {
    mode_ = Mode::Rows;
    rows_ = n;
    stride_ = 0;
    next_row_ = 0;
    if (offsets_.size() < n + 1) offsets_.resize(n + 1);
    offsets_[0] = 0;
    arena_used_ = 0;
  }

  /// Top-k mode: the full k-slot span of row i for a producer to write
  /// into (count recorded separately with set_count).
  std::span<Neighbor> slot(std::size_t i) {
    PANDA_ASSERT(mode_ == Mode::TopK && i < rows_);
    return {arena_.data() + i * stride_, stride_};
  }

  /// Top-k mode: records the live prefix length of row i. Writes only
  /// the row's private slot — safe for concurrent producers on
  /// distinct rows.
  void set_count(std::size_t i, std::size_t count) {
    PANDA_ASSERT(mode_ == Mode::TopK && i < rows_ && count <= stride_);
    counts_[i] = static_cast<std::uint32_t>(count);
  }

  /// Top-k mode: copies `row` (size <= k) into slot i and sets the
  /// count.
  void assign_row(std::size_t i, std::span<const Neighbor> row) {
    PANDA_ASSERT(row.size() <= stride_);
    std::copy(row.begin(), row.end(), slot(i).begin());
    set_count(i, row.size());
  }

  /// Rows mode: appends row i (rows must arrive in order 0, 1, ...).
  void append_row(std::size_t i, std::span<const Neighbor> row) {
    PANDA_ASSERT(mode_ == Mode::Rows && i == next_row_ && i < rows_);
    if (arena_.size() < arena_used_ + row.size()) {
      arena_.resize(arena_used_ + row.size());
    }
    std::copy(row.begin(), row.end(), arena_.data() + arena_used_);
    arena_used_ += row.size();
    offsets_[++next_row_] = arena_used_;
  }

  /// The results of query i, ascending (dist², id).
  std::span<const Neighbor> row(std::size_t i) const {
    PANDA_ASSERT(i < rows_);
    if (mode_ == Mode::TopK) {
      return {arena_.data() + i * stride_, counts_[i]};
    }
    PANDA_ASSERT(i < next_row_);
    return {arena_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  std::span<const Neighbor> operator[](std::size_t i) const { return row(i); }

  std::size_t count(std::size_t i) const { return row(i).size(); }

  /// Vector-of-vectors copy of every row (tests and benches).
  std::vector<std::vector<Neighbor>> to_vectors() const {
    std::vector<std::vector<Neighbor>> out(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      const auto r = row(i);
      out[i].assign(r.begin(), r.end());
    }
    return out;
  }

 private:
  enum class Mode { TopK, Rows };
  Mode mode_ = Mode::TopK;
  std::size_t rows_ = 0;
  std::size_t stride_ = 0;
  std::size_t next_row_ = 0;    // rows mode fill cursor
  std::size_t arena_used_ = 0;  // rows mode arena fill level
  AlignedVector<Neighbor> arena_;
  std::vector<std::uint32_t> counts_;    // top-k mode
  std::vector<std::uint64_t> offsets_;   // rows mode, n + 1 entries
};

}  // namespace panda::core
