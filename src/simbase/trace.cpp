#include "simbase/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "simbase/json.hpp"

namespace han::sim {

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[96];
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: name processes after simulated nodes and threads after world
  // ranks, so Perfetto's track labels read "node 2 / rank 17".
  std::vector<int> pids;
  std::vector<std::pair<int, int>> tids;  // (pid, tid)
  for (const Span& s : spans_) {
    pids.push_back(s.pid);
    tids.emplace_back(s.pid, s.tid);
  }
  for (const CounterSample& c : counters_) pids.push_back(c.pid);
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (int pid : pids) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"node %d\"}}",
                  pid, pid);
    out += buf;
  }
  for (const auto& [pid, tid] : tids) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"rank %d\"}}",
                  pid, tid, tid);
    out += buf;
  }

  for (const Span& s : spans_) {
    sep();
    out += "{\"ph\":\"X\",\"pid\":";
    out += std::to_string(s.pid);
    out += ",\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"cat\":";
    append_json_string(out, s.cat);
    out += ",\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}",
                  s.start * 1e6, s.duration * 1e6);
    out += buf;
  }

  for (const CounterSample& c : counters_) {
    sep();
    out += "{\"ph\":\"C\",\"pid\":";
    out += std::to_string(c.pid);
    out += ",\"name\":";
    append_json_string(out, c.name);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"args\":{\"value\":",
                  c.t * 1e6);
    out += buf;
    out += json_number(c.value);
    out += "}}";
  }

  out += "\n]}\n";
  return out;
}

bool Tracer::save(const std::string& path) const {
  errno = 0;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "Tracer::save: cannot open '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  f << to_chrome_json();
  f.flush();
  if (!f) {
    std::fprintf(stderr, "Tracer::save: write to '%s' failed: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace han::sim
