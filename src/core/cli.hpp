// Command-line front-end logic for the gaudisim tool.
//
// Kept in the library (rather than the tool's main) so the parsing and
// command dispatch are unit-testable; `tools/gaudisim_cli.cpp` is a thin
// wrapper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gaudi::core {

/// Parses `text` as a base-10 signed 64-bit integer.  Unlike bare
/// `std::stoll`, this throws sim::InvalidArgument (naming `what`, e.g. the
/// offending flag) on empty input, non-numeric input, trailing garbage
/// ("12abc"), or overflow — the CLI turns that into a usage error instead
/// of std::terminate.
[[nodiscard]] std::int64_t parse_i64(const std::string& text,
                                     const std::string& what);

/// Minimal --flag / --key value parser.  Also the reader of batch cells
/// (`from_pairs`), so an option parses and fails the same way in both
/// front-ends; every error names the option as `--key`.
class ArgParser {
 public:
  /// Parses `args` (excluding argv[0] and the subcommand).  Throws
  /// sim::InvalidArgument on a malformed list (missing value, unknown-style
  /// token).
  explicit ArgParser(std::vector<std::string> args);

  /// Wraps already-split key/value pairs, such as a batch cell's settings.
  [[nodiscard]] static ArgParser from_pairs(
      const std::vector<std::pair<std::string, std::string>>& pairs);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// `get_int`'s floating-point sibling (same rejection of garbage).
  [[nodiscard]] double get_f64(const std::string& key, double fallback) const;
  /// Boolean option: a bare flag, `on` or `1` means true; `off` or `0`
  /// false; any other value throws.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// The same, with absence kept apart for defaults that live elsewhere.
  [[nodiscard]] std::optional<bool> get_bool(const std::string& key) const;
  /// Index of the value of `key` in `names`; absent means 0.
  [[nodiscard]] std::size_t get_choice(
      const std::string& key, const std::vector<std::string>& names) const;
  /// `get_choice` over enum `values` spelled `name(value)`; absent means
  /// the first value.
  template <typename T, typename Name>
  [[nodiscard]] T get_enum(const std::string& key,
                           std::initializer_list<T> values, Name name) const {
    std::vector<std::string> names;
    for (const T v : values) names.emplace_back(name(v));
    return values.begin()[get_choice(key, names)];
  }
  /// Keys that were provided but never read — surfaced as errors so typos
  /// fail loudly.
  [[nodiscard]] std::vector<std::string> unused() const;
  /// Throws "unknown option: --key" for the first unread key.
  void check_unused() const;

 private:
  ArgParser() = default;

  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> read_;
};

/// Executes the CLI: `args` is the full argv list (argv[0] included).
/// Output goes to `out`; returns the process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out);

}  // namespace gaudi::core
