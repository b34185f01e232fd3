// Aligned-text and CSV table output, used by every bench binary to print
// the paper's rows/series.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace han::sim {

/// Collects rows of strings and renders them as an aligned ASCII table
/// (IMB-style) and/or CSV. Numeric convenience overloads format through
/// snprintf so output is locale-independent.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  Table& begin_row() {
    rows_.emplace_back();
    return *this;
  }

  Table& cell(std::string value);
  Table& cell(const char* value) { return cell(std::string(value)); }
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value) { return cell(std::to_string(value)); }
  Table& cell(int value) { return cell(std::to_string(value)); }

  std::size_t row_count() const { return rows_.size(); }

  /// Render as an aligned table with a separator under the header.
  std::string to_text() const;

  /// Render as CSV (header + rows). Cells containing commas are quoted.
  std::string to_csv() const;

  /// Print to stdout: a title line, then the aligned table.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace han::sim
