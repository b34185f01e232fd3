// Byte-size and time formatting/parsing helpers shared by benches, the
// autotuner lookup-table serialization, and test diagnostics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace han::sim {

/// Simulated time, in seconds. Double precision gives sub-nanosecond
/// resolution over the hours-long horizons the tuning benches simulate.
using Time = double;

inline constexpr Time kMicrosecond = 1e-6;
inline constexpr Time kMillisecond = 1e-3;

/// Format a byte count the way IMB tables do: "4", "1K", "128K", "4M", "1G".
/// Exact powers of two collapse to the suffix form; everything else prints
/// the raw byte count.
std::string format_bytes(std::uint64_t bytes);

/// Parse "64K", "4M", "1G", "128" (case-insensitive, optional trailing 'B')
/// into a byte count. Returns 0 and sets *ok=false on malformed input,
/// including a count whose digits or scale overflow uint64_t.
std::uint64_t parse_bytes(std::string_view text, bool* ok = nullptr);

/// Format a simulated duration with an auto-selected unit: "3.24us",
/// "1.52ms", "2.01s".
std::string format_time(Time seconds);

/// Format seconds as microseconds with fixed precision — the unit IMB and
/// the paper's figures use.
std::string format_usec(Time seconds, int precision = 2);

}  // namespace han::sim
