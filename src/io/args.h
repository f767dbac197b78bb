// Tiny declarative command-line argument parser for the locpriv tool.
//
// Supports: `--name value`, `--name=value`, boolean `--flag`, required
// options, defaults, and positional arguments. Unknown options are
// errors (catching typos beats silently ignoring them).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace locpriv::io {

/// Declaration of one option.
struct ArgSpec {
  std::string name;         ///< long name without the leading "--"
  std::string help;
  bool is_flag = false;     ///< true: presence-only, no value
  bool required = false;
  std::optional<std::string> default_value;
};

/// Parsed result with typed accessors. Accessors throw std::runtime_error
/// with a user-facing message on missing values or bad conversions.
class ParsedArgs {
 public:
  ParsedArgs(std::map<std::string, std::string> values, std::vector<std::string> positional);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  /// get_int for counts and sizes: a negative value is an error rather
  /// than a cast to a huge unsigned number.
  [[nodiscard]] std::size_t get_count(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// One subcommand parser.
class ArgParser {
 public:
  ArgParser(std::string command, std::string description);

  /// Declares an option; returns *this for chaining. Throws on duplicate
  /// names or a required option carrying a default.
  ArgParser& add(ArgSpec spec);

  /// Parses argv (excluding program and command names). Throws
  /// std::runtime_error with a user-facing message on violations.
  [[nodiscard]] ParsedArgs parse(const std::vector<std::string>& argv) const;

  /// Usage text listing every option.
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::string& description() const { return description_; }

 private:
  std::string command_;
  std::string description_;
  std::vector<ArgSpec> specs_;
};

}  // namespace locpriv::io
