#include "simbase/table.hpp"

#include <cstdio>

#include "simbase/assert.hpp"

namespace han::sim {

Table& Table::cell(std::string value) {
  HAN_ASSERT_MSG(!rows_.empty(), "call begin_row() before cell()");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return cell(std::string(buf));
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string();
      // Right-align everything; IMB-style tables are numeric-heavy.
      line.append(widths[c] - std::min(widths[c], v.size()), ' ');
      line += v;
      if (c + 1 < widths.size()) line += "  ";
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& v) {
    if (v.find_first_of(",\"\n") == std::string::npos) return v;
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += escape(row[c]);
    }
    out += '\n';
  };
  append_row(header_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

void Table::print(const std::string& title) const {
  std::printf("\n# %s\n%s", title.c_str(), to_text().c_str());
  std::fflush(stdout);
}

}  // namespace han::sim
