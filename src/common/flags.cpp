#include "common/flags.hpp"

#include <set>

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

long Flags::get_long(const std::string& key, long fallback, long min, long max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const long value = parse_long("--" + key, it->second);
  FEDHISYN_CHECK_MSG(value >= min && value <= max, "--" << key << "=" << value
                                                        << " is out of range [" << min
                                                        << ", " << max << "]");
  return value;
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double("--" + key, it->second);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value.empty() || value == "true" || value == "1" || value == "yes") return true;
  FEDHISYN_CHECK_MSG(value == "false" || value == "0" || value == "no",
                     "--" << key << "='" << value
                          << "' is not a boolean (true|1|yes|false|0|no)");
  return false;
}

void Flags::check_declared(const std::vector<FlagDecl>& declared) const {
  std::map<std::string_view, bool> takes_value;
  for (const FlagDecl decl : declared) {
    const std::string_view name = decl.substr(0, decl.find('='));
    FEDHISYN_CHECK_MSG(takes_value.emplace(name, name.size() < decl.size()).second,
                       "flag --" << name << " is declared twice");
  }
  std::set<std::string> given;
  for (const std::string& key : keys_) {
    const auto it = takes_value.find(key);
    FEDHISYN_CHECK_MSG(it != takes_value.end(),
                       "unknown flag --" << key << " (--help lists the flags this binary takes)");
    FEDHISYN_CHECK_MSG(given.insert(key).second, "--" << key << " is given twice");
    if (it->second) {
      FEDHISYN_CHECK_MSG(!values_.at(key).empty(), "--" << key << " takes a value");
    } else {
      get_bool(key);
    }
  }
  FEDHISYN_CHECK_MSG(positional_.empty(), "unexpected argument '"
                                              << positional_.front()
                                              << "' (flags start with --)");
}

}  // namespace fedhisyn
