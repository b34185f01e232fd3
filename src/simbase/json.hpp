// The one JSON writer every report shares: string literals and numbers.
// Every tool's report, the obs metrics export and the Chrome trace go
// through it, so identical inputs print identical bytes everywhere.
#pragma once

#include <string>
#include <string_view>

namespace han::sim {

/// Append `s` to `out` as a quoted JSON string literal. '"' and '\\' are
/// backslash-escaped, every byte below 0x20 becomes \u00XX (a newline is
/// \u000a), and every other byte is copied as is.
void append_json_string(std::string& out, std::string_view s);

/// `s` as a quoted JSON string literal (append_json_string).
std::string json_string(std::string_view s);

/// `v` in %.9g: locale-independent and deterministic, so identical
/// doubles print identically.
std::string json_number(double v);

}  // namespace han::sim
