#include "simd/distance.hpp"

#include "common/error.hpp"

// The AVX2 variant needs x86-64 and the GCC/Clang target attribute and
// __builtin_cpu_supports; elsewhere the baseline is the only variant.
#if defined(__x86_64__) && defined(__GNUC__)
#define PANDA_SIMD_AVX2_VARIANT 1
#else
#define PANDA_SIMD_AVX2_VARIANT 0
#endif

namespace panda::simd {

float squared_distance(const float* a, const float* b, std::size_t dims) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < dims; ++d) {
    const float diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

namespace {

using Kernel = void (*)(const float*, const float*, std::size_t, std::size_t,
                        std::size_t, float*);

void distances_baseline(const float* query, const float* bucket,
                        std::size_t stride, std::size_t count,
                        std::size_t dims, float* out) {
  detail::distances_table(query, bucket, stride, count, dims, out);
}

#if PANDA_SIMD_AVX2_VARIANT
// The same table compiled for AVX2: its always_inline kernels take this
// function's target, so the vectorizer emits 8-lane code. The target
// enables no FMA, so each multiply and add stays separately rounded.
[[gnu::target("avx2")]] void distances_avx2(const float* query,
                                            const float* bucket,
                                            std::size_t stride,
                                            std::size_t count,
                                            std::size_t dims, float* out) {
  detail::distances_table(query, bucket, stride, count, dims, out);
}
#endif

Kernel kernel_for(Isa isa) {
#if PANDA_SIMD_AVX2_VARIANT
  if (isa == Isa::kAvx2) return distances_avx2;
#endif
  (void)isa;
  return distances_baseline;
}

}  // namespace

bool isa_supported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#if PANDA_SIMD_AVX2_VARIANT
  // Safe before main(): a static initializer may be the first caller.
  __builtin_cpu_init();
  // libgcc/compiler-rt also check that the OS saves the YMM state.
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa isa =
      isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

void squared_distances_on(Isa isa, const float* query, const float* bucket,
                          std::size_t stride, std::size_t count,
                          std::size_t dims, float* out) {
  PANDA_CHECK_MSG(isa_supported(isa),
                  "distance kernel ISA variant not supported on this host");
  kernel_for(isa)(query, bucket, stride, count, dims, out);
}

void squared_distances_soa(const float* query, const float* bucket,
                           std::size_t stride, std::size_t count,
                           std::size_t dims, float* out) {
  static const Kernel kernel = kernel_for(active_isa());
  kernel(query, bucket, stride, count, dims, out);
}

void squared_distances_reference(const float* query, const float* bucket,
                                 std::size_t stride, std::size_t count,
                                 std::size_t dims, float* out) {
  for (std::size_t i = 0; i < count; ++i) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = static_cast<double>(query[d]) -
                          static_cast<double>(bucket[d * stride + i]);
      acc += diff * diff;
    }
    out[i] = static_cast<float>(acc);
  }
}

}  // namespace panda::simd
