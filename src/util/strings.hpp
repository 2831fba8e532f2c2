#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qoslb {

/// Splits `text` on `sep`, keeping empty fields (CSV semantics).
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Formats a double with `digits` significant decimal places, trimming the
/// representation to stay table-friendly ("12.346", "0.001", "1e-09").
std::string format_double(double value, int digits = 4);

/// The shortest decimal that reads back as exactly `value`, in printf's %g
/// style ("0.5", "0.05", "1e-05", "0.5000001"). For a value of at most six
/// significant digits it prints what format_double(value, 3) does.
std::string format_exact(double value);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Parses an integer list like "8,16,32". Throws std::invalid_argument on a
/// malformed or out-of-range entry.
std::vector<long long> parse_int_list(std::string_view text);

}  // namespace qoslb
