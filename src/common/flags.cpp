#include "common/flags.hpp"

#include "common/check.hpp"
#include "common/env.hpp"

namespace fedhisyn {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = token.substr(0, eq);
      value = token.substr(eq + 1);
    } else {
      key = token;
      // --key value form: consume the next token unless it is a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // boolean switch
      }
    }
    flags.values_[key] = value;
    flags.keys_.push_back(key);
  }
  return flags;
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Flags::get_long(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_long("--" + key, it->second);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double("--" + key, it->second);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  FEDHISYN_CHECK_MSG(value == "false" || value == "0" || value == "no",
                     "--" << key << "='" << value
                          << "' is not a boolean (true|1|yes|false|0|no)");
  return false;
}

}  // namespace fedhisyn
