// AVX2 GEMM micro-kernel: the 8x8 register tile (one ymm column of
// accumulators).  Function-level `target("avx2")` attributes keep the rest
// of the TU baseline-ISA — no per-file -mavx2, so no AVX2 code can leak into
// functions a non-AVX2 host might execute via comdat folding — and the
// runtime predicate is __builtin_cpu_supports.
//
// Deliberately NO FMA, by construction and not just by flag: the target
// attribute enables avx2 only (not fma), so the compiler *cannot* emit
// vfmadd here, and each k term is one rounded _mm256_mul_ps plus one rounded
// _mm256_add_ps — the exact arithmetic of the generic 4x8 kernel, hence
// bit-identical results (gemm_kernel.hpp).  FMA's unrounded product would
// roughly double peak throughput; the win here comes from the 256-bit lanes
// and the larger register tile instead, which is what the equivalence tests
// and the Table-1 byte-identity suites can afford.
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fedhisyn::gemmk {

namespace {

#if defined(__x86_64__) || defined(__i386__)

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

// 8x8: 8 ymm accumulators + 1 b load + 1 a broadcast = 10 of 16 ymm regs.
__attribute__((target("avx2"))) void kloop_8x8(const float* ap, const float* bp,
                                               std::int64_t k, float* acc) {
  __m256 vacc[8];
  for (int ii = 0; ii < 8; ++ii) vacc[ii] = _mm256_loadu_ps(acc + ii * 8);
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256 b = _mm256_loadu_ps(bp + p * 8);
    const float* a = ap + p * 8;
    for (int ii = 0; ii < 8; ++ii) {
      vacc[ii] = _mm256_add_ps(vacc[ii], _mm256_mul_ps(_mm256_set1_ps(a[ii]), b));
    }
  }
  for (int ii = 0; ii < 8; ++ii) _mm256_storeu_ps(acc + ii * 8, vacc[ii]);
}

#else  // non-x86: the variant exists but reports unsupported.

bool avx2_supported() { return false; }

#endif

}  // namespace

const GemmVariant& gemm_variant_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const GemmVariant variant{"avx2", avx2_supported, {8, 8, kloop_8x8}};
#else
  static const GemmVariant variant{"avx2", avx2_supported, {8, 8, nullptr}};
#endif
  return variant;
}

}  // namespace fedhisyn::gemmk
