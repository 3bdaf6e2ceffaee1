// Runtime kernel selection for the blocked GEMM family (see gemm_tune.hpp
// for the layering and gemm_kernel.hpp for why none of this can change
// result bytes).
#include "tensor/gemm_tune.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"

namespace fedhisyn {

namespace {

using gemmk::GemmKernel;
using gemmk::GemmOp;
using gemmk::GemmVariant;

/// The four variants in auto-dispatch preference order: widest vectors first,
/// generic as the unconditional fallback.
std::array<const GemmVariant*, 4> all_variants() {
  return {&gemmk::gemm_variant_avx512(), &gemmk::gemm_variant_avx2(),
          &gemmk::gemm_variant_neon(), &gemmk::gemm_variant_generic()};
}

/// The process-wide resolved selection.
struct Runtime {
  GemmRuntimeInfo info;
  GemmKernel kernel;
};

std::string tile_string(const GemmKernel& kernel) {
  return std::to_string(kernel.mr) + "x" + std::to_string(kernel.nr);
}

void log_selection_once(const Runtime& rt) {
  static bool logged = false;  // once per process, not per reinit
  if (logged) return;
  logged = true;
  if (quiet_from_env()) return;
  std::fprintf(stderr, "fedhisyn: gemm variant=%s tile=%s\n",
               rt.info.variant.c_str(), tile_string(rt.kernel).c_str());
}

/// Resolve FEDHISYN_GEMM_KERNEL into a Runtime: the forced variant, else
/// the best supported one.  Throws CheckError on an unknown or unsupported
/// forced variant; callers leave the previous selection in place.
Runtime build_runtime() {
  const std::string spec = gemm_kernel_from_env();
  const GemmVariant* variant = nullptr;
  for (const GemmVariant* candidate : all_variants()) {
    const bool wanted = spec == "auto" ? candidate->supported()
                                       : spec == candidate->name;
    if (wanted) {
      variant = candidate;
      break;
    }
  }
  FEDHISYN_CHECK_MSG(variant != nullptr,
                     "FEDHISYN_GEMM_KERNEL names unknown variant '"
                         << spec << "' (generic|avx2|avx512|neon|auto)");
  FEDHISYN_CHECK_MSG(variant->supported(),
                     "FEDHISYN_GEMM_KERNEL forces variant '"
                         << spec << "' but this CPU does not support it");
  return {{variant->name}, variant->kernel};
}

Runtime& runtime_slot() {
  static Runtime runtime = [] {
    Runtime rt = build_runtime();
    log_selection_once(rt);
    return rt;
  }();
  return runtime;
}

}  // namespace

std::string gemm_shape_class(GemmOp op, std::int64_t n) {
  constexpr const char* kOpNames[3] = {"nn", "nt", "tn"};
  return std::string(kOpNames[static_cast<int>(op)]) +
         (n > kGemmWideN ? "/wide" : "/narrow");
}

const GemmRuntimeInfo& gemm_runtime_info() { return runtime_slot().info; }

const GemmKernel& gemm_runtime_kernel() { return runtime_slot().kernel; }

void gemm_runtime_reinit() {
  Runtime fresh = build_runtime();  // may throw: slot stays untouched
  log_selection_once(fresh);
  runtime_slot() = std::move(fresh);
}

std::vector<std::string> gemm_supported_variants() {
  std::vector<std::string> names;
  for (const GemmVariant* variant : all_variants()) {
    if (variant->supported()) names.emplace_back(variant->name);
  }
  return names;
}

std::string gemm_info_string() {
  const Runtime& rt = runtime_slot();
  std::ostringstream os;
  os << "gemm dispatch:\n";
  os << "  variant:            " << rt.info.variant << "\n";
  os << "  tile:               " << tile_string(rt.kernel)
     << " nc=" << gemmk::panel_cols(rt.kernel)
     << " rows=" << gemmk::task_rows(rt.kernel) << "\n";
  os << "  supported variants:";
  for (const std::string& name : gemm_supported_variants()) os << " " << name;
  os << "\n";
  return os.str();
}

}  // namespace fedhisyn
