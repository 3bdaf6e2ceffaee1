// GEMM shape sweep: times the blocked/packed kernels (tensor/gemm.hpp)
// against a serial per-row reference (the pre-blocking kernel) over the
// dense-MLP and CNN-im2col shapes that dominate Table 1 / fig6 / fig7
// runtime, and emits machine-readable BENCH_gemm.json.
//
// tools/bench_gate.py consumes the JSON and fails the bench-regression job
// when a shape regresses against bench/baselines/.
//
// The gate metric is `speedup_st` = reference-serial time / blocked time on
// a 1-thread pool: a same-machine ratio, so it transfers across runner
// hardware where raw GFLOP/s would not.  `blk_mt_ms` / `parallel_scaling`
// are informational (pool size = --threads / FEDHISYN_THREADS).
//
//   ./bench_gemm_sweep --out BENCH_gemm.json [--min-time-ms 200]
//                      [--shapes name,...] [--list-kernels]
//                      (plus the shared --threads, --gemm-kernel, ...)
//
// Kernel modes: by default every shape is timed under the auto-selected
// kernel (the plain entry, gated against bench/baselines/BENCH_gemm.json)
// *and* once per supported ISA variant (entries named "<shape>@<variant>";
// the @generic rows join the main baseline, the @avx2 rows are gated by
// bench/baselines/BENCH_gemm_isa.json on hosts that have AVX2).  The shared
// --gemm-kernel forces one variant for the plain entries instead and skips
// the per-variant sweep; an unknown or unsupported variant fails at startup.
// --list-kernels prints the supported variant names and exits.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hostinfo.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "exp/driver.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"

namespace {

using namespace fedhisyn;

enum class Variant { kNN, kNT, kTN };

struct GemmShape {
  const char* name;
  Variant variant;
  std::int64_t m, k, n;
};

// The swept shapes: dense-MLP forward/backward at laptop and full batch, and
// the CNN im2col family (forward, filter-gradient, column-gradient) at a
// paper-scale conv layer (128 -> 64 channels, 3x3 kernel, 32x32 output:
// k = 128*3*3, n = 32*32).  cnn_im2col is the acceptance shape (k >= 256,
// n >= 256).  The census_* rows are Dense's forward, input-gradient and
// weight-gradient calls as Table 1 runs them (mnist at batch 40, cifar100's
// 192x50x64 weight gradient): small shapes the per-row reference used to
// serve inside the library.  Shape names are the keys of
// bench/baselines/BENCH_gemm.json — renaming or removing one requires a
// baseline refresh (see README "Performance").
constexpr GemmShape kShapes[] = {
    {"mlp_fwd", Variant::kNN, 50, 64, 200},
    {"mlp_fwd_big", Variant::kNN, 256, 64, 200},
    {"mlp_bwd_dw", Variant::kTN, 64, 256, 200},
    {"mlp_bwd_dx", Variant::kNT, 256, 200, 64},
    {"cnn_im2col", Variant::kNN, 64, 1152, 1024},
    {"cnn_dfilters", Variant::kNT, 64, 1024, 1152},
    {"cnn_dcols", Variant::kTN, 1152, 64, 1024},
    {"census_mnist_fwd", Variant::kNN, 40, 32, 16},
    {"census_mnist_dx", Variant::kNT, 40, 10, 16},
    {"census_mnist_dw", Variant::kTN, 16, 40, 10},
    {"census_c100_dw", Variant::kTN, 192, 50, 64},
};

// The pre-blocking per-row kernels, kept verbatim as the measurement
// reference (serial; the old `a == 0` skip never fires on the random
// operands so it is omitted).
void reference_gemm(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    const float* ai = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* bp = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void reference_gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
                       std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = acc;
    }
  }
}

void reference_gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
                       std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float api = a[p * m + i];
      const float* bp = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

struct Operands {
  std::vector<float> a, b, c;
};

Operands make_operands(const GemmShape& s) {
  Operands ops;
  const std::int64_t a_size = s.m * s.k;  // kTN stores (k x m): same count
  const std::int64_t b_size = s.k * s.n;  // kNT stores (n x k): same count
  ops.a.resize(static_cast<std::size_t>(a_size));
  ops.b.resize(static_cast<std::size_t>(b_size));
  ops.c.resize(static_cast<std::size_t>(s.m * s.n));
  Rng rng(static_cast<std::uint64_t>(1000 + a_size + b_size));
  for (auto& x : ops.a) x = static_cast<float>(rng.normal());
  for (auto& x : ops.b) x = static_cast<float>(rng.normal());
  return ops;
}

/// Best-of timing: run `fn` repeatedly until `min_time_ms` of total wall
/// clock accumulates (at least 3 samples), return the fastest per-call time
/// in ms.  A call under kBatchBelowMs (the census_mnist_* rows, 1-5 us) is
/// mostly clock overhead when timed alone, so its samples each time a batch
/// of calls lasting at least kMinSampleMs.  Every longer call (all gated rows:
/// the smallest, mlp_fwd, takes ~24 us) keeps one call per sample, and its
/// first timed call is its first sample.
constexpr double kBatchBelowMs = 0.01;
constexpr double kMinSampleMs = 0.1;

template <typename Fn>
double time_best_ms(double min_time_ms, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  const auto sample_ms = [&](int calls) {
    const auto start = clock::now();
    for (int i = 0; i < calls; ++i) fn();
    return std::chrono::duration<double, std::milli>(clock::now() - start).count();
  };
  fn();  // warm-up: pages, pack-buffer growth, branch predictors
  const double first = sample_ms(1);
  const int batch =
      first >= kBatchBelowMs
          ? 1
          : static_cast<int>(std::ceil(kMinSampleMs / std::max(first, 1e-6)));
  double best = batch == 1 ? first : 1e30;
  double total = batch == 1 ? first : 0.0;
  int runs = batch == 1 ? 1 : 0;
  while (total < min_time_ms || runs < 3) {
    const double ms = sample_ms(batch);
    best = std::min(best, ms / batch);
    total += ms;
    ++runs;
  }
  return best;
}

void run_blocked(const GemmShape& s, Operands& ops) {
  switch (s.variant) {
    case Variant::kNN:
      gemm(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
    case Variant::kNT:
      gemm_nt(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
    case Variant::kTN:
      gemm_tn(ops.a, ops.b, ops.c, s.m, s.k, s.n);
      break;
  }
}

void run_reference(const GemmShape& s, Operands& ops) {
  switch (s.variant) {
    case Variant::kNN:
      reference_gemm(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
    case Variant::kNT:
      reference_gemm_nt(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
    case Variant::kTN:
      reference_gemm_tn(ops.a.data(), ops.b.data(), ops.c.data(), s.m, s.k, s.n);
      break;
  }
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNN: return "nn";
    case Variant::kNT: return "nt";
    case Variant::kTN: return "tn";
  }
  return "?";
}

/// Point FEDHISYN_GEMM_KERNEL at `spec` (nullptr = unset) and re-resolve the
/// runtime selection — the documented test/bench reinit hook.
void force_kernel(const char* spec) {
  if (spec == nullptr) {
    unsetenv("FEDHISYN_GEMM_KERNEL");
  } else {
    setenv("FEDHISYN_GEMM_KERNEL", spec, /*overwrite=*/1);
  }
  gemm_runtime_reinit();
}

}  // namespace

// Reached through run_driver, which has sized the global pool for --threads
// and forced --gemm-kernel.
int run(const Flags& flags, const exp::GridDriverOptions&) {
  if (flags.get_bool("list-kernels")) {
    for (const std::string& name : gemm_supported_variants()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  const std::string out_path = flags.get("out", "BENCH_gemm.json");
  const double min_time_ms = flags.get_double("min-time-ms", 200.0);
  FEDHISYN_CHECK_MSG(min_time_ms > 0.0, "--min-time-ms must be > 0");
  const std::size_t threads = ParallelExecutor::global().thread_count();

  // --shapes: restrict the sweep, keeping the table's order.
  const std::vector<std::string> names = exp::list_flag(flags, "shapes", {});
  std::vector<const GemmShape*> selected;
  std::string known;
  for (const GemmShape& s : kShapes) {
    if (names.empty() || std::find(names.begin(), names.end(), s.name) != names.end()) {
      selected.push_back(&s);
    }
    known += std::string(" ") + s.name;
  }
  FEDHISYN_CHECK_MSG(names.empty() || selected.size() == names.size(),
                     "--shapes: unknown shape name in '" << flags.get("shapes", "")
                                                         << "' (known:" << known << ")");

  // Timing modes per shape: the current selection (plain entry, gated), and
  // — unless --gemm-kernel pinned one — every supported variant as
  // "@variant" entries (single-thread only; the ref timing is shared).
  struct Mode {
    std::string suffix;       // "" or "@avx2"
    std::string kernel_env;   // "" = the sweep's default selection
  };
  std::vector<Mode> modes;
  modes.push_back({"", ""});
  if (!flags.has("gemm-kernel")) {
    for (const std::string& name : gemm_supported_variants()) {
      modes.push_back({"@" + name, name});
    }
  }
  const char* original_env = std::getenv("FEDHISYN_GEMM_KERNEL");
  const std::string original_spec = original_env != nullptr ? original_env : "";
  const char* default_spec = original_env != nullptr ? original_spec.c_str() : nullptr;

  ParallelExecutor pool_st(1);

  std::string json;
  json += "{\n  \"schema\": \"fedhisyn-gemm-sweep/1\",\n";
  json += "  " + host_json_field(gemm_runtime_info().variant) + ",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"min_time_ms\": " + std::to_string(min_time_ms) + ",\n";
  json += "  \"shapes\": [\n";

  bool first = true;
  for (const GemmShape* shape : selected) {
    const GemmShape& s = *shape;
    Operands ops = make_operands(s);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) * static_cast<double>(s.n);

    const double ref_st_ms =
        time_best_ms(min_time_ms, [&] { run_reference(s, ops); });

    for (const Mode& mode : modes) {
      if (mode.kernel_env.empty()) {
        force_kernel(default_spec);
      } else {
        force_kernel(mode.kernel_env.c_str());
      }
      const std::string kernel = gemm_runtime_info().variant;

      double blk_st_ms = 0.0;
      {
        ParallelExecutor::Bind bind(pool_st);
        blk_st_ms = time_best_ms(min_time_ms, [&] { run_blocked(s, ops); });
      }
      const double speedup_st = ref_st_ms / blk_st_ms;
      char line[512];
      if (mode.suffix.empty()) {
        // On the global pool (--threads).
        const double blk_mt_ms =
            time_best_ms(min_time_ms, [&] { run_blocked(s, ops); });
        const double scaling = blk_st_ms / blk_mt_ms;
        std::snprintf(
            line, sizeof(line),
            "    {\"name\": \"%s\", \"variant\": \"%s\", \"m\": %lld, "
            "\"k\": %lld, \"n\": %lld, \"kernel\": \"%s\", "
            "\"ref_st_ms\": %.4f, \"blk_st_ms\": %.4f, \"blk_mt_ms\": %.4f, "
            "\"blk_st_gflops\": %.2f, \"blk_mt_gflops\": %.2f, "
            "\"speedup_st\": %.3f, \"parallel_scaling\": %.3f}",
            s.name, variant_name(s.variant), static_cast<long long>(s.m),
            static_cast<long long>(s.k), static_cast<long long>(s.n),
            kernel.c_str(), ref_st_ms, blk_st_ms, blk_mt_ms,
            flops / (blk_st_ms * 1e6), flops / (blk_mt_ms * 1e6), speedup_st,
            scaling);
        std::fprintf(stderr,
                     "%-14s %4lldx%4lldx%4lld  %-8s ref %8.3f ms  blocked "
                     "%8.3f ms  speedup %5.2fx  mt(%zu) %8.3f ms\n",
                     s.name, static_cast<long long>(s.m),
                     static_cast<long long>(s.k), static_cast<long long>(s.n),
                     kernel.c_str(), ref_st_ms, blk_st_ms, speedup_st, threads,
                     blk_mt_ms);
      } else {
        std::snprintf(
            line, sizeof(line),
            "    {\"name\": \"%s%s\", \"variant\": \"%s\", \"m\": %lld, "
            "\"k\": %lld, \"n\": %lld, \"kernel\": \"%s\", "
            "\"ref_st_ms\": %.4f, \"blk_st_ms\": %.4f, "
            "\"blk_st_gflops\": %.2f, \"speedup_st\": %.3f}",
            s.name, mode.suffix.c_str(), variant_name(s.variant),
            static_cast<long long>(s.m), static_cast<long long>(s.k),
            static_cast<long long>(s.n), kernel.c_str(), ref_st_ms, blk_st_ms,
            flops / (blk_st_ms * 1e6), speedup_st);
        std::fprintf(stderr,
                     "%-14s %4lldx%4lldx%4lld  %-8s ref %8.3f ms  blocked "
                     "%8.3f ms  speedup %5.2fx\n",
                     (s.name + mode.suffix).c_str(),
                     static_cast<long long>(s.m), static_cast<long long>(s.k),
                     static_cast<long long>(s.n), kernel.c_str(), ref_st_ms,
                     blk_st_ms, speedup_st);
      }
      if (!first) json += ",\n";
      first = false;
      json += line;
    }
  }
  json += "\n  ]\n}\n";

  // Leave the selection the way the process started.
  force_kernel(default_spec);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json;
  std::cout << out_path << std::endl;
  return 0;
}

int main(int argc, char** argv) {
  return fedhisyn::exp::run_driver(
      argc, argv, {"out=FILE", "min-time-ms=MS", "shapes=a,b", "list-kernels"}, run);
}
