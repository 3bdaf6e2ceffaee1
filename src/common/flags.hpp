// Tiny command-line flag parser for the CLI tool and ad-hoc experiment
// drivers.  Supports --key=value and --key value forms plus boolean
// switches; unknown flags are collected so callers can reject them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fedhisyn {

class Flags {
 public:
  /// Parse argv (excluding argv[0]).  Tokens not starting with "--" are
  /// positional arguments.
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  /// String value; fallback when absent.
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric value; fallback when absent.  A value that is not entirely a
  /// number ("4x", "abc") check-fails, naming the flag.
  long get_long(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Boolean switch: present without a value = true; a value must be one of
  /// true|1|yes|false|0|no, anything else check-fails, naming the flag (so
  /// `--resume results.jsonl` stops instead of silently reading as false).
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }
  /// Keys seen on the command line, in order (for unknown-flag checks).
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> keys_;
  std::vector<std::string> positional_;
};

}  // namespace fedhisyn
