// han_perf_ref — the reference kernel han_perf times to track the
// machine's speed (perf/README.md, "Reference speed").
//
// han_perf starts this program once and keeps it waiting on stdin. For
// every line it reads, it runs the kernel three times and answers with one
// line: the median kernel time in seconds. It exits at end of input.
//
// The kernel runs in its own process, built from this file alone and
// linked with none of the simulator's libraries, so no change under src/
// (a faster allocator, a new compiler flag, link-time optimization) can
// speed it up along with the code it is meant to measure, and its memory
// never counts toward han_perf's peak_rss_mb.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace {

/// A miniature discrete-event loop: a binary heap of timed events, each a
/// heap-allocated std::function that updates a 64K-key std::map and
/// schedules follow-ups. That is the simulator's own mix of indirect calls,
/// small allocations and cache-missing pointer chasing, so it slows down
/// with the simulator (a kernel that fits in L2 does not). It never
/// changes, so its time measures the machine, not the code under test.
std::uint64_t reference_kernel() {
  struct Event {
    double t;
    std::uint64_t seq;
    std::unique_ptr<std::function<void()>> fn;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  };
  std::vector<Event> heap;
  std::map<std::uint64_t, std::uint64_t> state;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, seq = 0, fired = 0;
  double now = 0.0;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 20;
  };
  std::function<void(int)> spawn = [&](int depth) {
    heap.push_back(Event{
        now + static_cast<double>(next() % 1000) * 1e-9, ++seq,
        std::make_unique<std::function<void()>>([&, depth] {
          ++fired;
          state[next() % 65536] += static_cast<std::uint64_t>(depth);
          if (depth < 6) {
            spawn(depth + 1);
            if ((next() & 3) == 0) spawn(depth + 1);
          }
        })});
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (int i = 0; i < 1500; ++i) spawn(0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = std::move(heap.back());
    heap.pop_back();
    now = e.t;
    (*e.fn)();
  }
  return fired + state.size();
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  std::uint64_t sink = 0;  // keeps the kernel's result alive
  char line[64];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    double t[3];
    for (double& s : t) {
      const Clock::time_point t0 = Clock::now();
      sink += reference_kernel();
      s = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    std::sort(t, t + 3);
    std::printf("%.9g\n", t[1]);
    std::fflush(stdout);
  }
  return sink == 0 ? 1 : 0;
}
