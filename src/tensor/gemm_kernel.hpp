// Internal micro-kernel ABI of the blocked GEMM family (tensor/gemm.cpp)
// and its arch-specialised implementations (gemm_kernels_*.cpp).
//
// One blocked driver serves every ISA: it packs op(A)/op(B) into p-major
// panels, beta-initialises an MR x NR staging tile with the per-variant
// semantics, calls the selected micro-kernel's k-loop, and stores the valid
// corner back to C.  Only the k-loop is ISA-specific, so a kernel variant is
// a function pointer plus its one register-tile shape.
//
// The k-loop contract is the repo's byte-identity contract in miniature:
//
//   acc[ii*nr + jj] += sum over p ascending of ap[p*mr+ii] * bp[p*nr+jj]
//
// with exactly one IEEE-rounded multiply and one IEEE-rounded add per term
// (NO fused multiply-add: contraction skips the product rounding and would
// make an FMA variant's bytes diverge from the generic kernel's — the
// kernel TUs compile with -ffp-contract=off, see CMakeLists.txt, and
// tests/tensor_test.cpp demands exact float equality across every variant).
// Under that contract the register-tile shape, the ISA and the tile grid
// are pure scheduling: every variant produces identical bits.
//
// Runtime selection (CPUID dispatch, FEDHISYN_GEMM_KERNEL) lives one layer
// up in tensor/gemm_tune.hpp.
#pragma once

#include <cstdint>

namespace fedhisyn::gemmk {

/// The three public entry points' operand layouts (gemm / gemm_nt / gemm_tn).
/// Only packing and the C-tile beta semantics differ per op; the k-loop is
/// op-agnostic.
enum class GemmOp { kNN, kNT, kTN };

/// Largest register tile any variant declares; the driver's staging
/// accumulator is sized to this (a 64-byte-aligned stack array).
inline constexpr std::int64_t kMaxMR = 8;
inline constexpr std::int64_t kMaxNR = 16;

/// Micro-kernel k-loop: accumulate the full k extent of one register tile
/// into the staging accumulator `acc` (mr x nr row-major, 64-byte aligned,
/// already initialised by the driver).  `ap` is the packed A strip (k x mr,
/// p-major), `bp` the packed B sub-panel (k x nr, p-major); both are
/// zero-padded past the valid edge, so the loop never branches on it.
using KloopFn = void (*)(const float* ap, const float* bp, std::int64_t k,
                         float* acc);

/// A variant's register tile and the k-loop that fills it.
struct GemmKernel {
  std::int64_t mr;
  std::int64_t nr;
  KloopFn kloop;  // nullptr where the variant cannot run
};

/// The tile grid the driver derives from a register tile: column panels of
/// 512 columns (rounded up to whole register tiles) and two register tiles
/// of rows per parallel task.
inline std::int64_t panel_cols(const GemmKernel& kernel) {
  return (512 + kernel.nr - 1) / kernel.nr * kernel.nr;
}
inline std::int64_t task_rows(const GemmKernel& kernel) { return 2 * kernel.mr; }

/// One ISA variant: a runtime support predicate plus its register tile.
struct GemmVariant {
  const char* name;     // "generic", "avx2", "avx512", "neon"
  bool (*supported)();  // runtime CPUID on x86, compile-time on aarch64
  GemmKernel kernel;
};

/// The four variants.  Every accessor exists on every platform; a variant
/// that cannot run here reports supported() == false and has no k-loop (so
/// FEDHISYN_GEMM_KERNEL=neon on x86 fails loudly, not mysteriously).
const GemmVariant& gemm_variant_generic();  // always supported
const GemmVariant& gemm_variant_avx2();
const GemmVariant& gemm_variant_avx512();
const GemmVariant& gemm_variant_neon();

}  // namespace fedhisyn::gemmk
