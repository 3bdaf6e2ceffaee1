// Generic (portable) GEMM micro-kernel: the 4x8 register tile in GCC vector
// extensions that every arch-specialised variant must reproduce bit-for-bit.
// This is the PR-3 kernel re-hosted on the gemm_kernel.hpp staging-tile ABI:
// the k-loop loads the driver-initialised accumulator into 4x2 4-lane vector
// registers, accumulates the full k extent in ascending order (one rounded
// mul + one rounded add per term — see the contract in gemm_kernel.hpp), and
// stores the registers back to the staging tile.
#include "tensor/gemm_kernel.hpp"

#include <cstring>

namespace fedhisyn::gemmk {

namespace {

constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;

// --- 4-lane float vector abstraction ----------------------------------------
// On GCC/Clang this is the builtin vector type, so the accumulator register
// layout (kMR x kNR/4 xmm tiles) doesn't depend on the autovectorizer;
// elsewhere it is a plain struct the optimiser scalarises.  Lane arithmetic
// is per-lane IEEE mul/add — the same rounding as scalar code — so every
// formulation below produces identical bits (no reassociation anywhere).
#if defined(__GNUC__) || defined(__clang__)
// may_alias: packed panels and the staging tile are float arrays read
// through lanes.
typedef float v4f __attribute__((vector_size(16), may_alias));
#define FEDHISYN_ALWAYS_INLINE __attribute__((always_inline)) inline
#define FEDHISYN_RESTRICT __restrict__

inline v4f v4_broadcast(float x) { return v4f{x, x, x, x}; }
#else
struct v4f {
  float lane[4];
  friend v4f operator+(v4f a, v4f b) {
    return {{a.lane[0] + b.lane[0], a.lane[1] + b.lane[1], a.lane[2] + b.lane[2],
             a.lane[3] + b.lane[3]}};
  }
  friend v4f operator*(v4f a, v4f b) {
    return {{a.lane[0] * b.lane[0], a.lane[1] * b.lane[1], a.lane[2] * b.lane[2],
             a.lane[3] * b.lane[3]}};
  }
  v4f& operator+=(v4f o) { return *this = *this + o; }
};
#define FEDHISYN_ALWAYS_INLINE inline
#define FEDHISYN_RESTRICT

inline v4f v4_broadcast(float x) { return {{x, x, x, x}}; }
#endif

// Unaligned load/store via memcpy (compiles to movups; also sidesteps
// aliasing rules for the portable struct).
FEDHISYN_ALWAYS_INLINE v4f v4_loadu(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
FEDHISYN_ALWAYS_INLINE void v4_storeu(float* p, v4f v) {
  std::memcpy(p, &v, sizeof(v));
}

static_assert(kNR % 4 == 0);
constexpr std::int64_t kNV = kNR / 4;

// vacc[ii][jv] += sum_p ap[p,ii] * bp[p, 4*jv..4*jv+3], p ascending.  Two k
// steps per iteration halve loop bookkeeping; each accumulator still sees
// its terms strictly in ascending p order (sequential adds, never a second
// accumulator), so the unroll is invisible to the bits.
FEDHISYN_ALWAYS_INLINE void micro_kloop(const float* FEDHISYN_RESTRICT ap,
                                        const float* FEDHISYN_RESTRICT bp,
                                        std::int64_t k, v4f vacc[kMR][kNV]) {
  std::int64_t p = 0;
  for (; p + 2 <= k; p += 2) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (std::int64_t ii = 0; ii < kMR; ++ii) {
      const v4f ai = v4_broadcast(a[ii]);
      for (std::int64_t jv = 0; jv < kNV; ++jv) {
        vacc[ii][jv] += ai * v4_loadu(b + jv * 4);
      }
    }
    const float* a1 = a + kMR;
    const float* b1 = b + kNR;
    for (std::int64_t ii = 0; ii < kMR; ++ii) {
      const v4f ai = v4_broadcast(a1[ii]);
      for (std::int64_t jv = 0; jv < kNV; ++jv) {
        vacc[ii][jv] += ai * v4_loadu(b1 + jv * 4);
      }
    }
  }
  for (; p < k; ++p) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (std::int64_t ii = 0; ii < kMR; ++ii) {
      const v4f ai = v4_broadcast(a[ii]);
      for (std::int64_t jv = 0; jv < kNV; ++jv) {
        vacc[ii][jv] += ai * v4_loadu(b + jv * 4);
      }
    }
  }
}

void kloop_4x8(const float* ap, const float* bp, std::int64_t k, float* acc) {
  v4f vacc[kMR][kNV];
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    for (std::int64_t jv = 0; jv < kNV; ++jv) {
      vacc[ii][jv] = v4_loadu(acc + ii * kNR + jv * 4);
    }
  }
  micro_kloop(ap, bp, k, vacc);
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    for (std::int64_t jv = 0; jv < kNV; ++jv) {
      v4_storeu(acc + ii * kNR + jv * 4, vacc[ii][jv]);
    }
  }
}

bool always_supported() { return true; }

}  // namespace

const GemmVariant& gemm_variant_generic() {
  static const GemmVariant variant{"generic", always_supported,
                                   {kMR, kNR, kloop_4x8}};
  return variant;
}

}  // namespace fedhisyn::gemmk
