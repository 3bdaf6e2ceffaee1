// AVX-512F GEMM micro-kernel: the 8x16 register tile (one zmm column of
// accumulators).  Same construction as the AVX2 TU: function-level
// `target("avx512f")` attributes (no per-file -mavx512f), runtime
// __builtin_cpu_supports dispatch, and strictly mul-then-add arithmetic —
// the target attribute enables avx512f only, and each k term is one rounded
// _mm512_mul_ps plus one rounded _mm512_add_ps, so results are bit-identical
// to the generic kernel (gemm_kernel.hpp).
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fedhisyn::gemmk {

namespace {

#if defined(__x86_64__) || defined(__i386__)

bool avx512_supported() { return __builtin_cpu_supports("avx512f") != 0; }

__attribute__((target("avx512f"))) void kloop_8x16(const float* ap,
                                                   const float* bp,
                                                   std::int64_t k, float* acc) {
  __m512 vacc[8];
  for (int ii = 0; ii < 8; ++ii) vacc[ii] = _mm512_loadu_ps(acc + ii * 16);
  for (std::int64_t p = 0; p < k; ++p) {
    const __m512 b = _mm512_loadu_ps(bp + p * 16);
    const float* a = ap + p * 8;
    for (int ii = 0; ii < 8; ++ii) {
      vacc[ii] = _mm512_add_ps(vacc[ii], _mm512_mul_ps(_mm512_set1_ps(a[ii]), b));
    }
  }
  for (int ii = 0; ii < 8; ++ii) _mm512_storeu_ps(acc + ii * 16, vacc[ii]);
}

// The staging accumulator must fit the largest tile declared anywhere.
static_assert(8 <= kMaxMR && 16 <= kMaxNR);

#else  // non-x86: the variant exists but reports unsupported.

bool avx512_supported() { return false; }

#endif

}  // namespace

const GemmVariant& gemm_variant_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  static const GemmVariant variant{"avx512", avx512_supported,
                                   {8, 16, kloop_8x16}};
#else
  static const GemmVariant variant{"avx512", avx512_supported, {8, 16, nullptr}};
#endif
  return variant;
}

}  // namespace fedhisyn::gemmk
