// NEON GEMM micro-kernel (aarch64): the 8x8 register tile on 128-bit q
// registers.  AArch64 mandates Advanced SIMD, so support is a compile-time
// fact — no runtime probe needed — and on every other architecture the
// variant exists but reports unsupported (so FEDHISYN_GEMM_KERNEL=neon fails
// loudly on x86).
//
// Arithmetic is vmulq_f32 followed by vaddq_f32 — deliberately NOT
// vmlaq_f32/vfmaq_f32, which lower to FMLA (fused, unrounded product) and
// would break bit-identity with the generic kernel.  The TU compiles with
// -ffp-contract=off (CMakeLists.txt) so the compiler cannot re-fuse the
// pair either.  See gemm_kernel.hpp for the contract.
#include "tensor/gemm_kernel.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace fedhisyn::gemmk {

namespace {

#if defined(__aarch64__)

bool neon_supported() { return true; }

// 8x8: 16 accumulators + 2 b loads + 1 dup = 19 of 32 q registers.
void kloop_8x8(const float* ap, const float* bp, std::int64_t k, float* acc) {
  float32x4_t vacc[8][2];
  for (int ii = 0; ii < 8; ++ii) {
    vacc[ii][0] = vld1q_f32(acc + ii * 8);
    vacc[ii][1] = vld1q_f32(acc + ii * 8 + 4);
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float32x4_t b0 = vld1q_f32(bp + p * 8);
    const float32x4_t b1 = vld1q_f32(bp + p * 8 + 4);
    const float* a = ap + p * 8;
    for (int ii = 0; ii < 8; ++ii) {
      const float32x4_t ai = vdupq_n_f32(a[ii]);
      vacc[ii][0] = vaddq_f32(vacc[ii][0], vmulq_f32(ai, b0));
      vacc[ii][1] = vaddq_f32(vacc[ii][1], vmulq_f32(ai, b1));
    }
  }
  for (int ii = 0; ii < 8; ++ii) {
    vst1q_f32(acc + ii * 8, vacc[ii][0]);
    vst1q_f32(acc + ii * 8 + 4, vacc[ii][1]);
  }
}

#else  // non-aarch64: the variant exists but reports unsupported.

bool neon_supported() { return false; }

#endif

}  // namespace

const GemmVariant& gemm_variant_neon() {
#if defined(__aarch64__)
  static const GemmVariant variant{"neon", neon_supported, {8, 8, kloop_8x8}};
#else
  static const GemmVariant variant{"neon", neon_supported, {8, 8, nullptr}};
#endif
  return variant;
}

}  // namespace fedhisyn::gemmk
