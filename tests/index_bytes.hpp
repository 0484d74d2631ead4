// Byte-level checks on saved kd-tree index files, shared by the tests
// that pin reproducible saves (test_kdtree, test_kdtree_io,
// test_external_build).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/kdtree.hpp"
#include "core/kdtree_format.hpp"

namespace panda::testing {

inline std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Asserts every padding byte of a saved index is zero: the header's
/// (inside TreeStats and BuildConfig, after header_crc, and the rest of
/// the header span) and each leaf record's tail. Unlike comparing two
/// saves, this does not depend on what the stack held.
inline void expect_zero_padding(const std::vector<char>& bytes) {
  using core::BuildConfig;
  using core::TreeStats;
  using core::detail::KdTreeHeader;
  ASSERT_GE(bytes.size(), core::detail::kKdTreeHeaderSpan);
  KdTreeHeader h;
  std::memcpy(static_cast<void*>(&h), bytes.data(), sizeof(h));
  const std::size_t stats = offsetof(KdTreeHeader, stats);
  const std::size_t config = offsetof(KdTreeHeader, config);
  const struct {
    std::size_t begin, end;
  } spans[] = {
      {stats + offsetof(TreeStats, max_depth) + sizeof(std::uint32_t),
       stats + offsetof(TreeStats, mean_leaf_fill)},
      {config + offsetof(BuildConfig, thread_switch_factor) +
           sizeof(std::uint32_t),
       config + offsetof(BuildConfig, exact_median_threshold)},
      {config + offsetof(BuildConfig, use_subinterval_search) + sizeof(bool),
       config + sizeof(BuildConfig)},
      {offsetof(KdTreeHeader, header_crc) + sizeof(std::uint32_t),
       core::detail::kKdTreeHeaderSpan},
  };
  for (const auto& span : spans) {
    for (std::size_t i = span.begin; i < span.end; ++i) {
      ASSERT_EQ(bytes[i], 0) << "header byte " << i;
    }
  }
  ASSERT_LE(h.leaves_off + h.leaf_count * core::detail::kLeafInfoBytes,
            bytes.size());
  for (std::uint64_t l = 0; l < h.leaf_count; ++l) {
    const std::size_t tail =
        h.leaves_off + l * core::detail::kLeafInfoBytes + 12;
    for (std::size_t i = tail; i < tail + 4; ++i) {
      ASSERT_EQ(bytes[i], 0) << "leaf " << l << " byte " << i - tail + 12;
    }
  }
}

}  // namespace panda::testing
