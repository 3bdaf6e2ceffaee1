#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace fedhisyn {

bool full_scale_enabled() {
  const char* value = std::getenv("FEDHISYN_FULL");
  return value != nullptr && value[0] == '1';
}

namespace {

/// The knob's value, or nullptr when it is unset or empty.
const char* set_value(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  return value == nullptr || value[0] == '\0' ? nullptr : value;
}

/// After a strto* parse of `value` that stopped at `end`: the whole value
/// must have been one in-range number.  "5m" or "4x" check-fails, naming the
/// variable, instead of silently truncating to its numeric prefix.
void check_whole_number(const std::string& name, const char* value, const char* end) {
  FEDHISYN_CHECK_MSG(end != value && *end == '\0' && errno != ERANGE,
                     name << "='" << value << "' is not a number");
}

}  // namespace

long env_long(const std::string& name, long fallback) {
  const char* value = set_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  check_whole_number(name, value, end);
  return parsed;
}

double env_double(const std::string& name, double fallback) {
  const char* value = set_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  check_whole_number(name, value, end);
  return parsed;
}

bool quiet_from_env() {
  const char* value = std::getenv("FEDHISYN_QUIET");
  if (value == nullptr || value[0] == '\0') return false;
  return !(std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
           std::strcmp(value, "false") == 0);
}

std::string gemm_kernel_from_env() {
  const char* value = std::getenv("FEDHISYN_GEMM_KERNEL");
  if (value == nullptr || value[0] == '\0') return "auto";
  return value;
}

std::string gemm_tune_cache_from_env() {
  const char* value = std::getenv("FEDHISYN_GEMM_TUNE_CACHE");
  return value == nullptr ? std::string() : std::string(value);
}

}  // namespace fedhisyn
