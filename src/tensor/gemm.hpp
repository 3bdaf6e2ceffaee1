// Single-precision GEMM kernels used by the dense and convolution layers.
//
// C (MxN) += / = op(A) * op(B).  Row-major.  Large shapes run a blocked,
// packed kernel (see gemm.cpp): C is tiled over a 2-D (row strip x column
// panel) grid that the ParallelExecutor pool fans out over (inline when
// already inside a parallel region), A/B panels are packed into per-thread
// aligned scratch, and an MRxNR register micro-kernel does the arithmetic.
// The micro-kernel is multiversioned per ISA (generic / AVX2 / AVX-512 /
// NEON, one register tile each, see gemm_kernel.hpp) and selected once per
// process by runtime CPUID dispatch — overridable via FEDHISYN_GEMM_KERNEL;
// the selection layer is tensor/gemm_tune.hpp.  Tiny shapes take a simple
// row kernel with the identical reduction order.
//
// Determinism: i/j are blocked but k never is — every C element accumulates
// its k terms in ascending order with one rounded multiply and one rounded
// add per term (no FMA anywhere), so results are bit-identical across thread
// counts, kernel variants and dispatch paths.  Not a BLAS replacement —
// sized for the models the FL simulation trains — but verified against an
// order-exact reference (every kernel variant forced, exact float equality)
// in tests/tensor_test.cpp and swept in bench/gemm_sweep.cpp.
#pragma once

#include <cstdint>
#include <span>

namespace fedhisyn {

/// C = A(MxK) * B(KxN) + beta * C.  All matrices row-major, contiguous.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::int64_t m, std::int64_t k, std::int64_t n, float beta = 0.0f);

/// C = A(MxK) * B^T where B is (NxK) row-major; i.e. C[i,j] = dot(A[i,:], B[j,:]).
void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, float beta = 0.0f);

/// C = A^T(MxK, stored KxM... ) — precisely: A is (KxM) row-major, B is (KxN)
/// row-major, C(MxN) = A^T * B + beta*C.  Used for weight gradients.
void gemm_tn(std::span<const float> a, std::span<const float> b, std::span<float> c,
             std::int64_t m, std::int64_t k, std::int64_t n, float beta = 0.0f);

}  // namespace fedhisyn
