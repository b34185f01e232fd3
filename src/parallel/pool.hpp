// han::par — the batched parallel simulation driver.
//
// SimWorld instances are deterministic and self-contained, so independent
// simulations (verification cases, tuner benchmarks, synthesis cases,
// figure cells) can run concurrently on a thread pool. The one rule that
// keeps every JSON/golden output byte-identical to a serial run: jobs are
// *independent* (each builds its own worlds, touches no shared state) and
// results are merged in input order, never completion order.
//
// parallel_map(jobs, n, fn) is the core of the API: with jobs <= 1 it
// degenerates to a plain in-order loop on the calling thread — the serial
// path — so `--jobs 1` (the default everywhere) is bit-for-bit the
// pre-parallel behaviour, and `--jobs N` must match it exactly.
// run_cases(jobs, cases) is the analyzers' report harness on top of it.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "simbase/assert.hpp"

namespace han::par {

/// Resolve a job-count request: 0 = one worker per hardware thread,
/// otherwise the request itself (clamped to >= 1).
int resolve_jobs(int jobs);

/// Parse a --jobs style argument ("4", "0" = auto); -1 on malformed input.
int parse_jobs(const char* arg);

/// Fixed-size pool of worker threads draining an index counter. One-shot:
/// constructed per parallel_map call (jobs are coarse — whole simulations —
/// so thread startup is noise), joined in the destructor.
class ThreadPool {
 public:
  /// Spawns min(threads, tasks) workers, each looping `body(index)` over
  /// the shared counter until `tasks` indices are consumed. The first
  /// exception thrown by any body is captured and rethrown from wait().
  ThreadPool(int threads, int tasks, std::function<void(int)> body);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Block until every index has been processed; rethrows the first
  /// captured exception.
  void wait();

 private:
  std::function<void(int)> body_;
  std::atomic<int> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::mutex error_mu_;
  int tasks_ = 0;
  std::vector<std::thread> workers_;
};

/// Run fn(i) for i in [0, n) and return the results indexed by i — the
/// deterministic merge point of every parallel driver in the tree. With
/// jobs <= 1 the calls run sequentially on the calling thread (the serial
/// path); otherwise up to `jobs` workers execute them concurrently. fn must
/// not touch state shared across indices.
template <typename Fn,
          typename R = decltype(std::declval<Fn&>()(0))>
std::vector<R> parallel_map(int jobs, int n, Fn fn) {
  HAN_ASSERT(n >= 0);
  std::vector<R> out(static_cast<std::size_t>(n));
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = fn(i);
    return out;
  }
  ThreadPool pool(jobs, n, [&out, &fn](int i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  pool.wait();
  return out;
}

/// Run analyzer case jobs and merge their reports. Each case fills a
/// private `Result` fragment (a struct with an `entries` vector whose
/// elements carry a `name`); the fragments' entries are concatenated in
/// input order and stably sorted by name, so the merged report is the
/// same for every `jobs` value.
template <typename Result>
Result run_cases(int jobs,
                 const std::vector<std::function<void(Result&)>>& cases) {
  std::vector<Result> frags = parallel_map(
      jobs, static_cast<int>(cases.size()), [&cases](int i) {
        Result frag;
        cases[static_cast<std::size_t>(i)](frag);
        return frag;
      });
  Result out;
  for (Result& frag : frags) {
    for (auto& e : frag.entries) out.entries.push_back(std::move(e));
  }
  std::stable_sort(
      out.entries.begin(), out.entries.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

}  // namespace han::par
