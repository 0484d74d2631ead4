// SIMD-friendly distance kernels.
//
// The query hot loop of PANDA is "distance from one query to every
// point in a leaf bucket" (Section III-A step iv / III-C). Buckets are
// stored SoA — coordinate d of point i lives at data[d * stride + i] —
// and padded to a multiple of kBucketPad with kPadSentinel, so the
// kernel can run whole vector groups without a tail loop and padded
// lanes never win (their distance overflows to +inf).
//
// Live lanes. A leaf scan computes only the leaf's points, rounded up
// to one kLaneGroup (8 lanes: one AVX2 vector, two SSE vectors) — not
// the padded stride. A 20-point leaf costs 24 lanes, not 32. The row
// pitch stays padded_count(count). lanes_at_most() then turns the
// bound test into a bitmask, 64 lanes per word, so only the winning
// lanes reach the heap.
//
// k-th smallest lane. A leaf scan whose heap is still unbounded can
// keep at most k of its lanes, so kth_smallest() finds the k-th
// smallest distance, for k up to 8, with a branch-free min/max network
// and the scan offers only the lanes at most that threshold.
//
// ISA variants. Dims 1–4 run inline at the call site on the baseline
// ISA. Every other call goes out of line to the variant chosen once
// from CPUID: AVX2 on x86-64 hosts that report it, otherwise the
// baseline (SSE2 on x86-64). Both variants instantiate the same
// distances_table, the one dims → kernel table; only the vector width
// differs. No option selects the ISA.
//
// No contraction. Every lane computes acc = 0, then acc += diff * diff
// for d = 0 .. dims-1 in order, a rounded multiply and a rounded add
// (no FMA). target("avx2") enables no FMA, so the AVX2 variant cannot
// contract; builds that enable FMA for the whole program (-march=native)
// compile with -ffp-contract=off (root CMakeLists.txt). Every variant,
// the inline path and the brute-force oracle therefore produce
// bit-identical distances.
//
// All distances in PANDA are *squared* Euclidean; square roots are
// taken only at API boundaries that ask for metric distances.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace panda::simd {

/// Bucket storage is padded to a multiple of this many points.
inline constexpr std::size_t kBucketPad = 16;

/// Leaf scans compute lanes in groups of this many points.
inline constexpr std::size_t kLaneGroup = 8;
static_assert(kBucketPad % kLaneGroup == 0,
              "a live-lane group must never reach past the padded row");

/// Lanes per lanes_at_most() word.
inline constexpr std::size_t kMaskWord = 64;

/// Coordinate value stored in padding lanes. Large enough that a
/// padded point can never enter a k-nearest heap (squared distances
/// overflow to +inf harmlessly in float).
inline constexpr float kPadSentinel = 1e30f;

/// Rounds a bucket point count up to the padded stride.
constexpr std::size_t padded_count(std::size_t n) {
  return (n + kBucketPad - 1) / kBucketPad * kBucketPad;
}

/// Rounds a bucket point count up to whole lane groups: the lanes a
/// leaf scan computes. Never exceeds padded_count(n).
constexpr std::size_t live_lanes(std::size_t n) {
  return (n + kLaneGroup - 1) / kLaneGroup * kLaneGroup;
}

/// Squared Euclidean distance between two AoS points of `dims`
/// coordinates.
float squared_distance(const float* a, const float* b, std::size_t dims);

/// Computes squared distances from `query` (AoS, dims coords) to
/// `count` SoA points: coordinate d of point i at bucket[d*stride+i].
/// Writes `count` results to `out`; `stride` must be >= count. Runs the
/// ISA variant active_isa() names.
void squared_distances_soa(const float* query, const float* bucket,
                           std::size_t stride, std::size_t count,
                           std::size_t dims, float* out);

/// Scalar reference implementation used by tests to validate the
/// kernels above.
void squared_distances_reference(const float* query, const float* bucket,
                                 std::size_t stride, std::size_t count,
                                 std::size_t dims, float* out);

/// Instruction-set variants of the out-of-line kernel.
enum class Isa { kBaseline, kAvx2 };

/// Whether this host and build can run `isa`. kBaseline always can;
/// kAvx2 only on x86-64 GCC/Clang builds running on an AVX2 CPU.
bool isa_supported(Isa isa);

/// The variant squared_distances_soa runs: AVX2 where supported, else
/// the baseline. Decided once, on first use.
Isa active_isa();

/// squared_distances_soa on a named variant, so tests can compare the
/// variants lane for lane. Throws panda::Error if !isa_supported(isa).
void squared_distances_on(Isa isa, const float* query, const float* bucket,
                          std::size_t stride, std::size_t count,
                          std::size_t dims, float* out);

// The kernel arithmetic below is header-inline: the kd-tree leaf scan
// calls it once per visited bucket, and for low dims the call overhead
// and the lost scheduling overlap are measurable (DESIGN.md §9). The
// kernels are always_inline, so each ISA variant in distance.cpp
// compiles its own copy at its own vector width.

namespace detail {

/// Fixed-dims inner loop: with DIMS a compile-time constant the
/// compiler fully unrolls the dimension loop and vectorizes over the
/// point index.
template <std::size_t DIMS>
[[gnu::always_inline]] inline void distances_fixed(
    const float* __restrict query, const float* __restrict bucket,
    std::size_t stride, std::size_t count, float* __restrict out) {
  for (std::size_t i = 0; i < count; ++i) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < DIMS; ++d) {
      const float diff = query[d] - bucket[d * stride + i];
      acc += diff * diff;
    }
    out[i] = acc;
  }
}

/// Any-dims loop: accumulates in `out` one dimension row at a time, in
/// the same per-lane order as distances_fixed.
[[gnu::always_inline]] inline void distances_generic(
    const float* __restrict query, const float* __restrict bucket,
    std::size_t stride, std::size_t count, std::size_t dims,
    float* __restrict out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = 0.0f;
  for (std::size_t d = 0; d < dims; ++d) {
    const float q = query[d];
    const float* __restrict row = bucket + d * stride;
    for (std::size_t i = 0; i < count; ++i) {
      const float diff = q - row[i];
      out[i] += diff * diff;
    }
  }
}

/// Dims up to this run inline at the call site.
inline constexpr std::size_t kInlineDims = 4;

/// The one dims → kernel table. The inline path instantiates it for
/// dims 1..kInlineDims (the other cases are unreachable there), and
/// each ISA variant instantiates all of it.
[[gnu::always_inline]] inline void distances_table(
    const float* query, const float* bucket, std::size_t stride,
    std::size_t count, std::size_t dims, float* out) {
  switch (dims) {
    case 1:
      distances_fixed<1>(query, bucket, stride, count, out);
      return;
    case 2:
      distances_fixed<2>(query, bucket, stride, count, out);
      return;
    case 3:
      distances_fixed<3>(query, bucket, stride, count, out);
      return;
    case 4:
      distances_fixed<4>(query, bucket, stride, count, out);
      return;
    case 10:
      distances_fixed<10>(query, bucket, stride, count, out);
      return;
    case 15:
      distances_fixed<15>(query, bucket, stride, count, out);
      return;
    default:
      distances_generic(query, bucket, stride, count, dims, out);
      return;
  }
}

}  // namespace detail

/// squared_distances_soa with dims 1..4 inlined into the caller; other
/// dims take the out-of-line, ISA-dispatched kernel. Leaf scans pass
/// count = live_lanes(leaf count).
inline void squared_distances_inline(const float* query, const float* bucket,
                                     std::size_t stride, std::size_t count,
                                     std::size_t dims, float* out) {
  // With dims known to be in 1..4 only those table cases are reachable
  // here, so the compiler inlines them and drops the rest.
  if (dims >= 1 && dims <= detail::kInlineDims) {
    detail::distances_table(query, bucket, stride, count, dims, out);
  } else {
    squared_distances_soa(query, bucket, stride, count, dims, out);
  }
}

/// squared_distances_inline over all `stride` lanes, padding included
/// (`out` holds `stride` floats; padded lanes receive +inf).
inline void squared_distances_padded_inline(const float* query,
                                            const float* bucket,
                                            std::size_t stride,
                                            std::size_t dims, float* out) {
  squared_distances_inline(query, bucket, stride, stride, dims, out);
}

/// Bit i of the result is set iff d2[i] <= bound, for i < count
/// (count <= kMaskWord); bits at and past `count` are clear. Agrees
/// with the scalar predicate for every value: NaN lanes are clear, +inf
/// lanes are set only under a +inf bound. Reads live_lanes(count)
/// floats of d2, the width a leaf scan's kernel writes. SSE compare +
/// movemask on x86-64 (baseline there, no dispatch); a scalar loop
/// elsewhere.
inline std::uint64_t lanes_at_most(const float* d2, std::size_t count,
                                   float bound) {
  std::uint64_t mask = 0;
#if defined(__x86_64__)
  const __m128 b = _mm_set1_ps(bound);
  for (std::size_t i = 0; i < count; i += kLaneGroup) {
    const auto lo = static_cast<std::uint64_t>(
        _mm_movemask_ps(_mm_cmple_ps(_mm_loadu_ps(d2 + i), b)));
    const auto hi = static_cast<std::uint64_t>(
        _mm_movemask_ps(_mm_cmple_ps(_mm_loadu_ps(d2 + i + 4), b)));
    mask |= (lo | hi << 4) << i;
  }
  if (count < kMaskWord) mask &= (std::uint64_t{1} << count) - 1;
#else
  for (std::size_t i = 0; i < count; ++i) {
    mask |= static_cast<std::uint64_t>(d2[i] <= bound) << i;
  }
#endif
  return mask;
}

/// kth_smallest selects through an unrolled network for k up to this.
inline constexpr std::size_t kUnrolledSelect = 8;

namespace detail {

/// kth_smallest for a compile-time k. r[0..K) holds the K smallest
/// lanes seen so far, ascending, in registers; each lane sinks from the
/// top through K min/max compare-exchanges and the largest of the
/// K + 1 values falls off the end. No step branches on the data.
template <std::size_t K>
[[gnu::always_inline]] inline float kth_smallest_fixed(const float* v,
                                                       std::size_t count) {
  float r[K];
  for (float& x : r) x = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    float x = v[i];
    for (std::size_t j = 0; j < K; ++j) {
      const float lo = std::min(r[j], x);
      x = std::max(r[j], x);
      r[j] = lo;
    }
  }
  return r[K - 1];
}

}  // namespace detail

/// The k-th smallest of v[0..count) (k = 1: the minimum) for non-NaN
/// values and 1 <= k <= kUnrolledSelect, through one switch over the
/// unrolled networks. +inf, a threshold every lane passes, when k >
/// count or k is outside that range.
inline float kth_smallest(const float* v, std::size_t count, std::size_t k) {
  switch (k) {
    case 1: return detail::kth_smallest_fixed<1>(v, count);
    case 2: return detail::kth_smallest_fixed<2>(v, count);
    case 3: return detail::kth_smallest_fixed<3>(v, count);
    case 4: return detail::kth_smallest_fixed<4>(v, count);
    case 5: return detail::kth_smallest_fixed<5>(v, count);
    case 6: return detail::kth_smallest_fixed<6>(v, count);
    case 7: return detail::kth_smallest_fixed<7>(v, count);
    case 8: return detail::kth_smallest_fixed<8>(v, count);
    default: return std::numeric_limits<float>::infinity();
  }
}

}  // namespace panda::simd
