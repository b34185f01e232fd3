#include "simbase/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

namespace han::sim {

std::string format_bytes(std::uint64_t bytes) {
  static constexpr struct {
    std::uint64_t scale;
    char suffix;
  } kUnits[] = {
      {1ull << 30, 'G'},
      {1ull << 20, 'M'},
      {1ull << 10, 'K'},
  };
  for (const auto& u : kUnits) {
    if (bytes >= u.scale && bytes % u.scale == 0) {
      return std::to_string(bytes / u.scale) + u.suffix;
    }
  }
  return std::to_string(bytes);
}

std::uint64_t parse_bytes(std::string_view text, bool* ok) {
  if (ok != nullptr) *ok = false;
  if (text.empty()) return 0;

  std::uint64_t value = 0;
  std::size_t i = 0;
  bool any_digit = false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (kMax - digit) / 10) return 0;  // overflows uint64_t
    value = value * 10 + digit;
    any_digit = true;
    ++i;
  }
  if (!any_digit) return 0;

  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (std::toupper(static_cast<unsigned char>(text[i]))) {
      case 'K': scale = 1ull << 10; ++i; break;
      case 'M': scale = 1ull << 20; ++i; break;
      case 'G': scale = 1ull << 30; ++i; break;
      default: break;
    }
    // Optional trailing 'B' ("64KB").
    if (i < text.size() &&
        std::toupper(static_cast<unsigned char>(text[i])) == 'B') {
      ++i;
    }
  }
  if (i != text.size() || value > kMax / scale) return 0;
  if (ok != nullptr) *ok = true;
  return value * scale;
}

std::string format_time(Time seconds) {
  char buf[64];
  const double abs = std::fabs(seconds);
  if (abs < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", seconds * 1e6);
  } else if (abs < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

std::string format_usec(Time seconds, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, seconds * 1e6);
  return buf;
}

}  // namespace han::sim
