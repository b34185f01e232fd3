#include "cli.hpp"

#include <cstdio>
#include <string_view>

#include "simbase/units.hpp"

namespace han::cli {

bool size_list(const char* arg, bool ascending,
               std::vector<std::size_t>* out) {
  out->clear();
  std::string_view rest(arg);
  for (;;) {
    const std::size_t comma = rest.find(',');
    bool ok = false;
    const std::uint64_t v = sim::parse_bytes(rest.substr(0, comma), &ok);
    if (!ok || v == 0 || (ascending && !out->empty() && v <= out->back())) {
      out->clear();
      return false;
    }
    out->push_back(v);
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 1);
  }
}

int bad_value(const char* tool, const char* flag, const char* arg) {
  std::fprintf(stderr, "%s: bad %s value '%s'\n", tool, flag, arg);
  return 1;
}

bool write_file(const char* tool, const std::string& path,
                const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return ok;
}

}  // namespace han::cli
