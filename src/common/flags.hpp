// Tiny command-line flag parser for the CLI tool and the experiment drivers.
// Supports --key=value and --key value forms plus boolean switches;
// check_declared rejects anything a binary did not declare.
#pragma once

#include <climits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fedhisyn {

/// One declared flag: "name=VALUE" for a flag that takes a value (VALUE names
/// it in --help), "name" for a switch.
using FlagDecl = std::string_view;

class Flags {
 public:
  /// Parse argv (excluding argv[0]).  Tokens not starting with "--" are
  /// positional arguments.  A flag given no value reads as "".
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  /// String value; fallback when absent.
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric value; fallback when absent.  A value that is not entirely a
  /// number ("4x", "abc") or lies outside [min, max] check-fails, naming the
  /// flag; callers bound it to the type the value lands in.
  long get_long(const std::string& key, long fallback, long min = LONG_MIN,
                long max = LONG_MAX) const;
  double get_double(const std::string& key, double fallback) const;
  /// Boolean switch: present without a value = true; a value must be one of
  /// true|1|yes|false|0|no, anything else check-fails, naming the flag (so
  /// `--resume results.jsonl` stops instead of silently reading as false).
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Check the command line against `declared`: an undeclared flag, a flag
  /// given twice, a positional argument, a value flag given no value and a
  /// switch given a non-boolean value each check-fail, naming it; so does a
  /// name declared twice.
  void check_declared(const std::vector<FlagDecl>& declared) const;

  const std::vector<std::string>& positional() const { return positional_; }
  /// Keys seen on the command line, in order (for unknown-flag checks).
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> keys_;
  std::vector<std::string> positional_;
};

}  // namespace fedhisyn
