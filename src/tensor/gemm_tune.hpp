// Runtime kernel selection for the blocked GEMM family.
//
// The micro-kernel variants (gemm_kernel.hpp) all produce identical bits, so
// which one runs is a pure performance decision.  This layer makes it once
// per process: FEDHISYN_GEMM_KERNEL forces a variant ("generic" | "avx2" |
// "avx512" | "neon"); "auto" or unset picks the best ISA the CPU supports
// (avx512 > avx2 > neon > generic, probed via __builtin_cpu_supports on
// x86).  Each variant has exactly one register tile, and the driver derives
// its tile grid from it (gemmk::panel_cols / gemmk::task_rows).
//
// None of this can change result bytes — only scheduling.  The equivalence
// suite in tests/tensor_test.cpp forces every supported variant and demands
// exact float equality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.hpp"

namespace fedhisyn {

/// Outputs with n <= kGemmWideN are "narrow", the rest "wide".
inline constexpr std::int64_t kGemmWideN = 256;

/// Shape-class key naming a gemm trace span, e.g. "nn/narrow" or "tn/wide":
/// operand layout {nn, nt, tn} x output width {narrow, wide}.
std::string gemm_shape_class(gemmk::GemmOp op, std::int64_t n);

/// What the runtime selection resolved to (for startup logging, the
/// --gemm-info diagnostic and bench host fields).
struct GemmRuntimeInfo {
  std::string variant;  // selected variant name
};
const GemmRuntimeInfo& gemm_runtime_info();

/// The register tile and k-loop the public gemm entry points execute.
/// Resolves the process-wide selection on first use (logging one startup
/// line unless FEDHISYN_QUIET).
const gemmk::GemmKernel& gemm_runtime_kernel();

/// Drop the resolved selection and re-read the environment on next use.
/// Test/bench hook only (documented in docs/ARCHITECTURE.md): lets the
/// equivalence suite and the bench sweep force kernels via setenv without
/// process restarts.  Not thread-safe against concurrent gemm calls.  Throws
/// CheckError (leaving the previous selection intact) when the environment
/// names an unknown variant or forces one this CPU cannot run.
void gemm_runtime_reinit();

/// Names of the variants this CPU can run, auto-preference order first.
std::vector<std::string> gemm_supported_variants();

/// Multi-line human-readable dispatch report (the --gemm-info flag): the
/// selected variant, its register tile and tile grid, and the supported
/// variants.
std::string gemm_info_string();

}  // namespace fedhisyn
