#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qoslb {

/// Small command-line parser for the bench/example binaries.
/// Accepts "--name=value", "--name value", and bare "--flag". Unknown
/// arguments are an error at `finish()`, so typos in sweep scripts fail loudly.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Typed getters consume the option and record it as known. A value that
  /// does not parse whole, or is out of range for its type, throws
  /// std::invalid_argument naming the flag and the raw text
  /// ("--n expects an integer, got 'abc'").
  long long get_int(const std::string& name, long long default_value);
  /// A count (users, rounds, threads, ...): get_int that throws
  /// std::invalid_argument naming the flag when the value is negative, so a
  /// negative count never wraps into a huge unsigned one.
  std::uint64_t get_count(const std::string& name, std::uint64_t default_value);
  double get_double(const std::string& name, double default_value);
  std::string get_string(const std::string& name, const std::string& default_value);
  bool get_flag(const std::string& name);
  std::vector<long long> get_int_list(const std::string& name,
                                      const std::vector<long long>& default_value);
  /// A list of counts (--sizes, --threads, ...): get_int_list that throws
  /// std::invalid_argument naming the flag when an entry is negative.
  std::vector<long long> get_count_list(
      const std::string& name, const std::vector<long long>& default_value);

  /// Throws std::invalid_argument if any argument was never consumed.
  void finish() const;

  bool has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::string take(const std::string& name, bool* present);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::string program_;
};

}  // namespace qoslb
