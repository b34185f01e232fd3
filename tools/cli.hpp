// The argument helpers every han_* tool shares: strict range-checked
// integers, byte-size lists in the sim::parse_bytes grammar, and the
// report-file writer. A malformed value is rejected whole — never read as
// a prefix or a silent 0 — and the tool exits 1 on it.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace han::cli {

/// Parse `arg` as a whole decimal integer of type T that is at least
/// `min`: an optional '-' (signed T only) and digits, nothing else, no
/// overflow of T. On success stores it in *out; on anything else returns
/// false and leaves *out as it was.
template <typename T>
bool int_arg(const char* arg, T min, T* out) {
  const char* end = arg + std::strlen(arg);
  T v{};
  const auto [stop, ec] = std::from_chars(arg, end, v);
  if (ec != std::errc{} || stop != end || v < min) return false;
  *out = v;
  return true;
}

/// Parse a comma-separated list of byte sizes in the sim::parse_bytes
/// grammar ("64K,1M,4096"), each at least 1 byte. With `ascending`, each
/// size must exceed the one before it (no repeats). On failure returns
/// false and clears *out.
bool size_list(const char* arg, bool ascending, std::vector<std::size_t>* out);

/// Print "<tool>: bad <flag> value '<arg>'" to stderr and return 1, the
/// exit status of every malformed argument.
int bad_value(const char* tool, const char* flag, const char* arg);

/// Write `text` to the file `path`. On failure prints
/// "<tool>: cannot write <path>" to stderr and returns false.
bool write_file(const char* tool, const std::string& path,
                const std::string& text);

}  // namespace han::cli
