// ScopedEnv: an RAII environment-variable override for tests — sets the
// variable on construction and restores the previous value (or unsets it)
// on destruction.  Child workers spawned inside the scope inherit it.
#pragma once

#include <cstdlib>
#include <string>

namespace fedhisyn {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace fedhisyn
