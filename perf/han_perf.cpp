// han_perf — the host-performance benchmark program (perf/README.md).
//
// One workload per process:
//
//   han_perf --workload W --seed S --seconds T [--trace] [--smoke]
//
// W is coll-replay, train-steps, tune-fleet or analyze-sweep. han_perf
// builds the workload's inputs from S, sets it up several times (setup_s is
// the median), repeats its operation for T host seconds (op_ms is the
// mean), checks every output, and prints one JSON object as the last
// line of stdout. Host times are divided by a reference kernel timed
// between them in a helper process (han_perf_ref, SpeedGauge), which
// cancels part of a shared machine's speed swings; untraced runs also
// report both times before that division.
//
// Every layer is measured from outside: han_perf times its own calls into
// the public entry points and reads the worlds' MetricsRegistry counters
// afterwards. Untraced runs report the end-to-end metrics. --trace runs
// split T in two halves — the first untraced, the second with per-call
// timers and spans — report the per-layer metrics, and write the spans to
// perf/out/<workload>.host.trace.json (Chrome trace-event format).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/horovod.hpp"
#include "apps/zero.hpp"
#include "autotune/tunedb.hpp"
#include "flownet/flownet.hpp"
#include "han/lint/lint.hpp"
#include "han/synth/synth.hpp"
#include "han/task/builders.hpp"
#include "han/verify/sweep.hpp"
#include "simbase/rng.hpp"
#include "vendor/stack.hpp"

namespace han::perf {
namespace {

using Clock = std::chrono::steady_clock;
using coll::CollKind;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// --- Metric tables -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by untraced runs; BENCHMARK.json's "end_to_end" lists the same.
constexpr MetricDef kEndToEnd[] = {
    {"op_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_us", "us"},
};

// Printed by --trace runs; BENCHMARK.json's "per_layer" lists the same.
// A metric of a layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"host.reference_ms", "ms"},
    {"op_ms.p50", "ms"},
    {"op_ms.p95", "ms"},
    {"trace.overhead_pct", "%"},
    {"engine.events", "count"},
    {"engine.events_per_s", "1/s"},
    {"engine.pool_capacity", "count"},
    {"engine.ns_per_event", "ns"},
    {"net.flows.started", "count"},
    {"flownet.ns_per_flow", "ns"},
    {"flownet.pool_capacity", "count"},
    {"mpi.messages", "count"},
    {"mpi.messages_per_coll", "count"},
    {"coll.actions", "count"},
    {"coll.actions_per_coll", "count"},
    {"sim.level.intra.busy_s", "s"},
    {"sim.level.mid.busy_s", "s"},
    {"sim.level.inter.busy_s", "s"},
    {"han.issue_s", "s"},
    {"han.issue_share", "ratio"},
    {"han.decide_ns", "ns"},
    {"han.build_ns", "ns"},
    {"han.task.graphs", "count"},
    {"han.task.nodes", "count"},
    {"sim.coll_us", "us"},
    {"sim.img_per_s.horovod", "1/s"},
    {"sim.img_per_s.zero", "1/s"},
    {"app.horovod.host_s", "s"},
    {"app.zero.host_s", "s"},
    {"setup.autotune_s", "s"},
    {"sim.tune_cost_s", "s"},
    {"tune.prepare_s", "s"},
    {"tune.estimate_s", "s"},
    {"tune.taskbench.runs", "count"},
    {"tune.model_estimates", "count"},
    {"tune.warm_s", "s"},
    {"tune.warm.reused", "count"},
    {"verify.sweep_s", "s"},
    {"verify.cases", "count"},
    {"verify.actions", "count"},
    {"lint.model_s", "s"},
    {"lint.sim_s", "s"},
    {"lint.perturb_s", "s"},
    {"lint.checks", "count"},
    {"synth.run_s", "s"},
    {"synth.cases", "count"},
    {"par.speedup_j2", "ratio"},
    {"par.efficiency", "ratio"},
};

/// What one run reports: the correctness verdict, the operation counts,
/// and metric values by name.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> values;
  // op_ms and setup_s before normalization, and the median kernel time
  // they were divided by.
  double raw_op_ms = 0, raw_setup_s = 0, reference_ms = 0;

  /// Record a correctness check; a failed one marks the run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) {
      std::fprintf(stderr, "han_perf: check failed: %s\n", what.c_str());
    }
    correct = false;
  }
};

// --- Host trace --------------------------------------------------------------

/// Coarse host spans (workload, phase, op, tool call) kept in memory and
/// written once at exit, plus per-call aggregates (count + total ns) for
/// calls too frequent to record one by one.
class HostTrace {
 public:
  HostTrace() : t0_(Clock::now()) {}

  void add_calls(const std::string& name, std::uint64_t calls,
                 std::int64_t ns) {
    Aggregate& a = calls_[name];
    a.calls += calls;
    a.ns += ns;
  }

  /// Chrome trace-event JSON (Perfetto and chrome://tracing open it). The
  /// per-call aggregates sit under the top-level "calls" key.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, ",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.dur_ns) / 1e3);
      out << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << s.cat
          << "\", " << buf << "\"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\n\"calls\": [\n";
    std::size_t i = 0;
    for (const auto& [name, a] : calls_) {
      out << "  {\"name\": \"" << name << "\", \"count\": " << a.calls
          << ", \"total_ns\": " << a.ns << "}"
          << (++i < calls_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  friend class Span;
  struct Rec {
    std::string name;
    const char* cat;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    long parent;  // index of the enclosing span, -1 at the top
  };
  struct Aggregate {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  std::int64_t ns_since_start(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Rec> spans_;
  std::vector<long> open_;  // stack of open span indices
  std::map<std::string, Aggregate> calls_;
};

/// Times a region. With a trace it also records the region as a span
/// nested in the innermost open one; without (untraced runs) it is a bare
/// stopwatch.
class Span {
 public:
  Span(HostTrace* trace, std::string name, const char* cat = "call")
      : trace_(trace), start_(Clock::now()) {
    if (trace_ == nullptr) return;
    index_ = static_cast<long>(trace_->spans_.size());
    const long parent = trace_->open_.empty() ? -1 : trace_->open_.back();
    trace_->spans_.push_back(HostTrace::Rec{
        std::move(name), cat, trace_->ns_since_start(start_), 0, parent});
    trace_->open_.push_back(index_);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the region (once) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      end_ = Clock::now();
      if (trace_ != nullptr) {
        trace_->spans_[static_cast<std::size_t>(index_)].dur_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end_ - start_)
                .count();
        trace_->open_.pop_back();
      }
    }
    return seconds_between(start_, end_);
  }

 private:
  HostTrace* trace_;
  long index_ = -1;
  Clock::time_point start_;
  Clock::time_point end_;
  bool stopped_ = false;
};

// --- Layer accounting --------------------------------------------------------

/// Work counters of one simulated world, read from its engine, flow network
/// and MetricsRegistry.
struct WorldWork {
  double events = 0, flows = 0, messages = 0, actions = 0, graphs = 0,
         nodes = 0;
  double busy[3] = {};  // coll.level.{intra,mid,inter}.busy_seconds

  static WorldWork read(mpi::SimWorld& w) {
    static constexpr const char* kActionKinds[] = {
        "send", "recv", "copy", "reduce", "compute", "noop", "cross_copy",
        "cross_reduce"};
    static constexpr const char* kLevels[] = {"intra", "mid", "inter"};
    obs::MetricsRegistry& m = w.metrics();
    WorldWork k;
    k.events = static_cast<double>(w.engine().events_processed());
    k.flows = m.counter("net.flows.started").value();
    k.messages = m.counter("mpi.messages").value();
    for (const char* a : kActionKinds) {
      k.actions += m.counter(std::string("coll.actions.") + a).value();
    }
    k.graphs = m.counter("han.task.graphs").value();
    k.nodes = m.counter("han.task.nodes").value();
    for (int l = 0; l < 3; ++l) {
      k.busy[l] = m.counter(std::string("coll.level.") + kLevels[l] +
                            ".busy_seconds")
                      .value();
    }
    return k;
  }

  void add(const WorldWork& after, const WorldWork& before) {
    events += after.events - before.events;
    flows += after.flows - before.flows;
    messages += after.messages - before.messages;
    actions += after.actions - before.actions;
    graphs += after.graphs - before.graphs;
    nodes += after.nodes - before.nodes;
    for (int l = 0; l < 3; ++l) busy[l] += after.busy[l] - before.busy[l];
  }
};

// --- Stacks ------------------------------------------------------------------

/// A HanStack whose collective entry points time themselves while `timing`
/// is set: the host cost of issuing a collective (decide, hierarchy,
/// TaskGraph build, first scheduler pump) seen from outside the library.
class TimedHanStack final : public vendor::HanStack {
 public:
  using HanStack::HanStack;

  bool timing = false;
  std::uint64_t calls = 0;  // timed MpiStack::i* calls, all ranks
  std::int64_t ns = 0;      // host time inside them

  mpi::Request ibcast(int rank, int root, mpi::BufView buf,
                      mpi::Datatype dtype) override {
    return timed([&] { return HanStack::ibcast(rank, root, buf, dtype); });
  }
  mpi::Request iallreduce(int rank, mpi::BufView send, mpi::BufView recv,
                          mpi::Datatype dtype, mpi::ReduceOp op) override {
    return timed(
        [&] { return HanStack::iallreduce(rank, send, recv, dtype, op); });
  }
  mpi::Request ireduce_scatter(int rank, mpi::BufView send, mpi::BufView recv,
                               mpi::Datatype dtype,
                               mpi::ReduceOp op) override {
    return timed([&] {
      return HanStack::ireduce_scatter(rank, send, recv, dtype, op);
    });
  }
  mpi::Request iallgather(int rank, mpi::BufView send,
                          mpi::BufView recv) override {
    return timed([&] { return HanStack::iallgather(rank, send, recv); });
  }

 private:
  template <typename F>
  mpi::Request timed(F&& f) {
    if (!timing) return f();
    const Clock::time_point t0 = Clock::now();
    mpi::Request r = f();
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count();
    ++calls;
    return r;
  }
};

/// What a workload's traced ops did, summed over those ops.
struct LayerWork {
  WorldWork work;
  double collectives = 0;        // whole-world collectives issued
  std::uint64_t issue_calls = 0;  // MpiStack::i* calls, all ranks
  double issue_s = 0;            // host seconds inside them
  std::size_t engine_pool = 0;
  std::size_t flow_pool = 0;

  /// Take over a stack's call timers (and reset them).
  void add_issue(TimedHanStack& s, int world_size) {
    collectives += static_cast<double>(s.calls) / world_size;
    issue_calls += s.calls;
    issue_s += static_cast<double>(s.ns) / 1e9;
    s.calls = 0;
    s.ns = 0;
  }
  void note_pools(mpi::SimWorld& w) {
    engine_pool = std::max(engine_pool, w.engine().pool_capacity());
    flow_pool = std::max(flow_pool, w.flownet().flow_pool_capacity());
  }
};

/// Untraced runs get the plain HanStack; traced runs the self-timing one.
std::unique_ptr<vendor::HanStack> make_han_stack(machine::MachineProfile p,
                                                 bool timed) {
  if (timed) return std::make_unique<TimedHanStack>(std::move(p));
  return std::make_unique<vendor::HanStack>(std::move(p));
}

/// A world with the collective machinery and HAN, owned by han_perf (the
/// tuner's and the tools' own worlds are built the same way).
struct HanWorld {
  HanWorld(machine::MachineProfile profile, mpi::SimWorld::Options o)
      : world(std::move(profile), o), rt(world), mods(world, rt),
        han(world, rt, mods) {}
  mpi::SimWorld world;
  coll::CollRuntime rt;
  coll::ModuleSet mods;
  core::HanModule han;
};

// --- Collective calls --------------------------------------------------------

/// One collective of a replay script. `bytes` is the full vector: the send
/// size of bcast/allreduce/reduce-scatter and the receive size of allgather.
struct Call {
  CollKind kind = CollKind::Allreduce;
  std::size_t bytes = 0;
  int root = 0;
};

constexpr CollKind kReplayKinds[] = {CollKind::Allreduce, CollKind::Bcast,
                                     CollKind::ReduceScatter,
                                     CollKind::Allgather};
constexpr std::size_t kReplaySizes[] = {4 << 10, 16 << 10, 64 << 10};

/// Issue `c` on `s` as rank `me`. Null buffers run timing-only; otherwise
/// `send`/`recv` hold the rank's payload (bcast uses `send` in place).
mpi::Request issue(vendor::MpiStack& s, const Call& c, int me, int n,
                   std::byte* send, std::byte* recv) {
  const mpi::Datatype t = mpi::Datatype::Int32;
  const std::size_t block = c.bytes / static_cast<std::size_t>(n);
  switch (c.kind) {
    case CollKind::Bcast:
      return s.ibcast(me, c.root, mpi::BufView{send, c.bytes, t}, t);
    case CollKind::Allreduce:
      return s.iallreduce(me, mpi::BufView{send, c.bytes, t},
                          mpi::BufView{recv, c.bytes, t}, t,
                          mpi::ReduceOp::Sum);
    case CollKind::ReduceScatter:
      return s.ireduce_scatter(me, mpi::BufView{send, c.bytes, t},
                               mpi::BufView{recv, block, t}, t,
                               mpi::ReduceOp::Sum);
    case CollKind::Allgather:
      return s.iallgather(me, mpi::BufView{send, block, t},
                          mpi::BufView{recv, c.bytes, t});
    default:
      break;
  }
  HAN_ASSERT_MSG(false, "replay scripts hold no other kinds");
  return nullptr;
}

/// A rank's payload element: small values, so 64-rank sums stay exact.
std::int32_t element(int rank, std::size_t i) {
  const int v = (rank * 131 + static_cast<int>(i % 4099) * 7) % 251;
  return static_cast<std::int32_t>(v - 125);
}

// --- Machine speed -----------------------------------------------------------

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "han_perf: %s\n", what.c_str());
  std::exit(1);
}

/// The reference kernel (han_perf_ref.cpp), in its own process next to
/// this program. han_perf waits for each answer, so the kernel never runs
/// alongside the code under test.
class RefKernel {
 public:
  RefKernel() {
    std::string path =
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "han_perf_ref")
            .string();
    int to[2], from[2];
    if (pipe(to) != 0 || pipe(from) != 0) die("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, from[1], STDOUT_FILENO);
    for (int fd : {to[0], to[1], from[0], from[1]}) {
      posix_spawn_file_actions_addclose(&fa, fd);
    }
    char* argv[] = {path.data(), nullptr};
    const int err = posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv,
                                environ);
    posix_spawn_file_actions_destroy(&fa);
    if (err != 0) die("cannot start " + path);
    close(to[0]);
    close(from[1]);
    to_ = fdopen(to[1], "w");
    from_ = fdopen(from[0], "r");
    if (to_ == nullptr || from_ == nullptr) die("fdopen failed");
  }
  /// End of input stops the helper; wait until it has ended.
  ~RefKernel() {
    std::fclose(to_);
    std::fclose(from_);
    waitpid(pid_, nullptr, 0);
  }
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  /// One kernel time in seconds (the helper's median of three).
  double seconds() {
    char line[64];
    if (std::fputs("k\n", to_) < 0 || std::fflush(to_) != 0 ||
        std::fgets(line, sizeof line, from_) == nullptr) {
      die("the reference kernel (han_perf_ref) did not answer");
    }
    return std::strtod(line, nullptr);
  }

 private:
  pid_t pid_ = -1;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
};

/// The reference kernel's host time on the machine the baseline was
/// captured on (4-vCPU Xeon VM, 2.0 GHz) when that machine is quiet.
/// Normalized times are expressed at this speed.
constexpr double kReferenceMs = 9.0;

/// Tracks the machine's speed while a run measures. A shared machine's
/// speed swings by up to 2x for minutes at a time, so every measured
/// duration is divided by the median kernel time of the whole run and
/// re-expressed at kReferenceMs. A single sample (three kernel runs, about
/// 30 ms) is too noisy to divide the durations next to it: dividing by the
/// samples around each set-up spread coll-replay's set-ups from 2.2 to
/// 3.3 s where their raw times spread from 4.0 to 4.7 s, and medians over
/// 1-8 s windows did no better than the run's median. Ops of several steps
/// sample between them; the samples' own time is left out of the
/// durations they fall in.
class SpeedGauge {
 public:
  /// Time the kernel now.
  void sample() {
    const Clock::time_point start = Clock::now();
    const double s = kernel_.seconds();
    samples_.push_back(Sample{start, Clock::now(), s});
  }

  /// Sample if half a second has passed since the last sample.
  void maybe_sample() {
    if (samples_.empty() ||
        seconds_between(samples_.back().end, Clock::now()) >= 0.5) {
      sample();
    }
  }

  /// [a, b] less the samples in it, in seconds at reference speed. Valid
  /// once the run has taken all its samples.
  double normalize(Clock::time_point a, Clock::time_point b) const {
    double total = seconds_between(a, b);
    for (const Sample& s : samples_) {
      if (s.start >= a && s.end <= b) total -= seconds_between(s.start, s.end);
    }
    return total / reference_ms() * kReferenceMs;
  }

  /// Median raw kernel time, ms (how fast the machine ran).
  double reference_ms() const {
    std::vector<double> t;
    for (const Sample& s : samples_) t.push_back(s.seconds * 1e3);
    return median(t);
  }

 private:
  struct Sample {
    Clock::time_point start, end;
    double seconds;  // kernel time
  };

  RefKernel kernel_;
  std::vector<Sample> samples_;
};

// --- Workload base -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// A workload: set-up (repeated; its median is setup_s), one operation
/// (repeated for the timed phase; its mean is op_ms), and a final
/// correctness gate that also fills the workload's own metrics.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Rebuild the workload's state from scratch (the previous state is
  /// dropped first, so peak memory holds one copy).
  virtual void setup() = 0;
  /// The fewest ops a timed phase runs, whatever its length.
  virtual int min_ops() const = 0;
  /// Whether a traced op makes the same library calls as an untraced one,
  /// so that the two halves of a --trace run differ only by the tracing
  /// (trace.overhead_pct).
  virtual bool traced_op_same() const { return true; }
  /// One operation; `trace` is non-null in the traced half of a --trace
  /// run, where the op also fills `layer_`. Ops of several steps sample
  /// `gauge` between them.
  virtual void op(HostTrace* trace, SpeedGauge& gauge) = 0;
  /// Correctness gate plus workload metrics (sim_us and its per-layer ones).
  virtual void finish(Result& r, HostTrace* trace) = 0;

  const LayerWork& layer() const { return layer_; }

 protected:
  LayerWork layer_;
};

// --- coll-replay -------------------------------------------------------------

/// HanStack on an autotuned 64-rank aries machine replaying rounds of 96
/// small collectives. Every (kind, size) key repeats thousands of times, so
/// the front end (decide, hierarchy, TaskGraph build) is a large share of
/// host time: the workload a persistent-collective cache must win on.
class CollReplay final : public Workload {
 public:
  explicit CollReplay(const Options& o)
      : profile_(machine::make_aries(o.smoke ? 2 : 8, 8)), timed_(o.trace) {
    const int n = profile_.total_procs();
    sim::Rng rng(o.seed);
    const int scripts = o.smoke ? 2 : 16;
    for (int s = 0; s < scripts; ++s) {
      Script sc;
      for (int rep = 0; rep < 8; ++rep) {
        for (CollKind k : kReplayKinds) {
          for (std::size_t b : kReplaySizes) sc.calls.push_back(Call{k, b, 0});
        }
      }
      for (std::size_t i = sc.calls.size(); i > 1; --i) {
        std::swap(sc.calls[i - 1], sc.calls[rng.next_below(i)]);
      }
      for (Call& c : sc.calls) {
        if (c.kind == CollKind::Bcast) {
          c.root = static_cast<int>(rng.next_below(n));
        }
      }
      sc.skew.resize(sc.calls.size() * static_cast<std::size_t>(n));
      for (double& d : sc.skew) d = rng.uniform(0.0, 2e-6);
      scripts_.push_back(std::move(sc));
    }
    first_sim_.assign(scripts_.size(), -1.0);
  }

  void setup() override {
    stack_.reset();
    stack_ = make_han_stack(profile_, timed_);
    tune::TunerOptions opts;
    opts.message_sizes.assign(std::begin(kReplaySizes), std::end(kReplaySizes));
    const Clock::time_point t0 = Clock::now();
    const tune::TuneReport rep = stack_->autotune(opts);
    autotune_s_.push_back(seconds_between(t0, Clock::now()));
    tables_.push_back(rep.table.serialize());
    table_ = rep.table;
  }

  int min_ops() const override { return static_cast<int>(scripts_.size()); }

  void op(HostTrace* trace, SpeedGauge& /*gauge*/) override {
    const std::size_t k = round_ % scripts_.size();
    const Script& sc = scripts_[k];
    vendor::HanStack& st = *stack_;
    mpi::SimWorld& w = st.world();
    auto* timed = dynamic_cast<TimedHanStack*>(&st);
    if (timed != nullptr) timed->timing = trace != nullptr;
    const WorldWork before = WorldWork::read(w);

    const double t0 = w.now();
    long done = 0;
    w.run([&](mpi::Rank& rank) {
      return replay_rank(st, sc, rank.world_rank, done);
    });
    const double sim = w.now() - t0;

    const long n = w.world_size();
    const long calls = static_cast<long>(sc.calls.size());
    attempted_ += calls;
    failed_ += calls - done / n;
    if (first_sim_[k] < 0.0) first_sim_[k] = sim;
    if (trace != nullptr) {
      layer_.work.add(WorldWork::read(w), before);
      layer_.add_issue(*timed, w.world_size());
      layer_.note_pools(w);
    }
    ++round_;
  }

  void finish(Result& r, HostTrace* trace) override {
    for (const std::string& t : tables_) {
      r.check(t == tables_.front(), "set-up autotune tables differ");
    }
    r.check(failed_ == 0, "a replayed collective did not complete");
    r.attempted += attempted_;
    r.failed += failed_;

    Span gate(trace, "data-mode payload check", "gate");
    const auto [checked, wrong] = check_payloads();
    r.attempted += checked;
    r.failed += wrong;
    r.check(wrong == 0, "a collective delivered a wrong payload");

    // Mean simulated µs per collective over the scripts' first rounds.
    const double calls = static_cast<double>(scripts_.front().calls.size());
    double sim = 0.0;
    for (double s : first_sim_) sim += s / calls;
    sim = sim / static_cast<double>(first_sim_.size()) * 1e6;
    r.values["sim_us"] = sim;
    r.values["sim.coll_us"] = sim;
    r.values["setup.autotune_s"] = median(autotune_s_);
  }

 private:
  struct Script {
    std::vector<Call> calls;
    std::vector<double> skew;  // [rank * calls + i]: arrival delay, seconds
  };

  static sim::CoTask replay_rank(vendor::MpiStack& s, const Script& sc, int me,
                                 long& done) {
    mpi::SimWorld& w = s.world();
    const int n = w.world_size();
    const std::size_t calls = sc.calls.size();
    for (std::size_t i = 0; i < calls; ++i) {
      co_await sim::Delay{w.engine(),
                          sc.skew[static_cast<std::size_t>(me) * calls + i]};
      mpi::Request req = issue(s, sc.calls[i], me, n, nullptr, nullptr);
      co_await *req;
      ++done;
    }
  }

  static sim::CoTask one_call(vendor::MpiStack& s, const Call& c, int me,
                              std::byte* send, std::byte* recv) {
    mpi::Request req = issue(s, c, me, s.world().world_size(), send, recv);
    co_await *req;
  }

  /// Every (kind, size) key once more on a data-mode stack with the same
  /// tuned decider, each payload checked against a flat reference computed
  /// here. Returns {keys checked, keys wrong}.
  std::pair<long, long> check_payloads() const {
    vendor::HanStack ds(profile_, /*data_mode=*/true);
    ds.han().set_decider(table_.decider());
    const int n = ds.world().world_size();
    long checked = 0, wrong = 0;
    for (CollKind kind : kReplayKinds) {
      for (std::size_t bytes : kReplaySizes) {
        const Call c{kind, bytes, n / 3};
        const std::size_t count = bytes / sizeof(std::int32_t);
        const std::size_t block = count / static_cast<std::size_t>(n);
        const std::size_t send_count =
            kind == CollKind::Allgather ? block : count;
        const std::size_t recv_count =
            kind == CollKind::ReduceScatter ? block : count;
        std::vector<std::vector<std::int32_t>> send(n), recv(n);
        for (int q = 0; q < n; ++q) {
          send[q].resize(send_count);
          for (std::size_t i = 0; i < send_count; ++i) {
            send[q][i] = kind == CollKind::Bcast && q != c.root ? -1
                                                                : element(q, i);
          }
          recv[q].assign(recv_count, -7);
        }
        ds.world().run([&](mpi::Rank& rank) {
          const int me = rank.world_rank;
          return one_call(ds, c, me,
                          reinterpret_cast<std::byte*>(send[me].data()),
                          reinterpret_cast<std::byte*>(recv[me].data()));
        });
        bool ok = true;
        for (int q = 0; q < n && ok; ++q) {
          const std::vector<std::int32_t>& got =
              kind == CollKind::Bcast ? send[q] : recv[q];
          for (std::size_t i = 0; i < got.size() && ok; ++i) {
            std::int32_t want = 0;
            if (kind == CollKind::Bcast) {
              want = element(c.root, i);
            } else if (kind == CollKind::Allgather) {
              want = element(static_cast<int>(i / block), i % block);
            } else {
              const std::size_t at =
                  kind == CollKind::ReduceScatter
                      ? static_cast<std::size_t>(q) * block + i
                      : i;
              for (int p = 0; p < n; ++p) want += element(p, at);
            }
            ok = got[i] == want;
          }
        }
        ++checked;
        if (!ok) ++wrong;
      }
    }
    return {checked, wrong};
  }

  machine::MachineProfile profile_;
  bool timed_;
  std::vector<Script> scripts_;
  std::unique_ptr<vendor::HanStack> stack_;
  tune::LookupTable table_;
  std::vector<std::string> tables_;
  std::vector<double> autotune_s_;
  // Simulated seconds of each script's first round. Later replays start
  // at a later simulated clock, where float rounding may reorder
  // near-simultaneous events, so they are timed but not compared.
  std::vector<double> first_sim_;
  std::size_t round_ = 0;
  long attempted_ = 0, failed_ = 0;
};

// --- train-steps -------------------------------------------------------------

/// Horovod and ZeRO training steps on an autotuned 128-rank opath machine:
/// bandwidth-bound, millions of engine events per step and a handful of
/// collective calls. Engine, flownet and fabric gains show here; a
/// front-end cache should not (the bypass workload).
class TrainSteps final : public Workload {
 public:
  explicit TrainSteps(const Options& o)
      : profile_(machine::make_opath(o.smoke ? 2 : 8, 16)), timed_(o.trace) {
    const std::size_t fusion = (o.smoke ? std::size_t{4} : 16) << 20;
    // The seed sets the compute time per step (±0.25%, the same on every
    // rank): the simulated step moves with it, the host work does not.
    sim::Rng rng(o.seed);
    const double compute = 0.30 * (1.0 + 0.005 * (rng.next_double() - 0.5));
    horovod_.model_bytes = 2 * fusion;
    horovod_.fusion_bytes = fusion;
    horovod_.compute_sec_per_step = compute;
    horovod_.steps = 1;
    horovod_.warmup_steps = 0;
    zero_.model_bytes = 2 * fusion;
    zero_.bucket_bytes = fusion;
    zero_.compute_sec_per_step = compute;
    zero_.steps = 1;
    zero_.warmup_steps = 0;
  }

  void setup() override {
    vendor::HanStack st(profile_);
    tune::TunerOptions opts;
    opts.kinds = {CollKind::Allreduce, CollKind::ReduceScatter};
    opts.message_sizes = {horovod_.fusion_bytes};
    const Clock::time_point t0 = Clock::now();
    table_ = st.autotune(opts).table;
    autotune_s_.push_back(seconds_between(t0, Clock::now()));
    tables_.push_back(table_.serialize());
  }

  int min_ops() const override { return 3; }

  /// One Horovod step and one ZeRO step on a fresh stack with the tuned
  /// table installed. Starting from simulated time 0 every op must
  /// reproduce the first one's step times bit for bit; on a reused world
  /// the float clock offset can reorder near-simultaneous events.
  void op(HostTrace* trace, SpeedGauge& /*gauge*/) override {
    std::unique_ptr<vendor::HanStack> stack = make_han_stack(profile_, timed_);
    stack->han().set_decider(table_.decider());
    vendor::HanStack& st = *stack;
    mpi::SimWorld& w = st.world();
    auto* timed = dynamic_cast<TimedHanStack*>(&st);
    if (timed != nullptr) timed->timing = trace != nullptr;

    Span hs(trace, "apps::run_horovod");
    const apps::HorovodReport h = apps::run_horovod(st, horovod_);
    const double h_s = hs.stop();
    Span zs(trace, "apps::run_zero");
    const apps::ZeroReport z = apps::run_zero(st, zero_);
    const double z_s = zs.stop();

    attempted_ += 2;
    if (first_.empty()) {
      first_ = {h.step_sec, z.step_sec, h.images_per_sec, z.images_per_sec};
    } else {
      if (h.step_sec != first_[0]) ++mismatches_;
      if (z.step_sec != first_[1]) ++mismatches_;
    }
    if (trace != nullptr) {
      layer_.work.add(WorldWork::read(w), WorldWork{});
      layer_.add_issue(*timed, w.world_size());
      layer_.note_pools(w);
      horovod_s_.push_back(h_s);
      zero_s_.push_back(z_s);
    }
  }

  void finish(Result& r, HostTrace* /*trace*/) override {
    for (const std::string& t : tables_) {
      r.check(t == tables_.front(), "set-up autotune tables differ");
    }
    r.check(mismatches_ == 0, "a repeated step changed its simulated time");
    r.attempted += attempted_;
    r.failed += mismatches_;
    r.values["sim_us"] = (first_[0] + first_[1]) / 2.0 * 1e6;
    r.values["sim.img_per_s.horovod"] = first_[2];
    r.values["sim.img_per_s.zero"] = first_[3];
    r.values["app.horovod.host_s"] = median(horovod_s_);
    r.values["app.zero.host_s"] = median(zero_s_);
    r.values["setup.autotune_s"] = median(autotune_s_);
  }

 private:
  machine::MachineProfile profile_;
  bool timed_;
  apps::HorovodOptions horovod_;
  apps::ZeroOptions zero_;
  tune::LookupTable table_;
  std::vector<std::string> tables_;
  std::vector<double> autotune_s_, horovod_s_, zero_s_;
  std::vector<double> first_;  // horovod/zero step seconds, then img/s
  long attempted_ = 0, mismatches_ = 0;
};

// --- tune-fleet --------------------------------------------------------------

/// A cold Tuner::tune of every machine of a small fleet (flat, 4-rail, and
/// NUMA-split), each table ingested into an in-memory TuneDb and followed
/// by a warm_tune that must reuse every bucket. The front end of
/// coll-replay, but every call carries a new config; task-benchmark
/// simulation and the cost model dominate.
class TuneFleet final : public Workload {
 public:
  explicit TuneFleet(const Options& o) {
    struct Shape {
      const char* family;
      int numa, rails;
    };
    sim::Rng rng(o.seed);
    for (const Shape s : {Shape{"aries", 1, 1}, Shape{"aries", 1, 4},
                          Shape{"opath", 2, 1}}) {
      // 2x4 machines keep a pass near 1.3 s, so a 10 s run holds enough
      // passes for a steady median (2x8 passes took 2 s and spread 10%).
      machine::MachineProfile p;
      machine::make_stock(s.family, 2, 4, s.numa, &p, s.rails);
      // The seed sets each machine's large-message efficiency (up to 2%
      // lower from 2 MB, a firmware difference): the simulated tuning cost
      // moves with it, the host work does not. CPU jitter would move both.
      machine::scale_net_efficiency(p, 1.0 - 0.02 * rng.next_double(),
                                    2 << 20);
      profiles_.push_back(std::move(p));
    }
    if (o.smoke) opts_.kinds = {CollKind::Allreduce};
    first_.resize(profiles_.size());
  }

  void setup() override {
    worlds_.clear();
    for (const machine::MachineProfile& p : profiles_) {
      worlds_.push_back(
          std::make_unique<HanWorld>(p, mpi::SimWorld::Options()));
    }
  }

  int min_ops() const override { return 2; }

  /// The traced half replays Tuner::tune through the Searcher calls.
  bool traced_op_same() const override { return false; }

  void op(HostTrace* trace, SpeedGauge& gauge) override {
    tune::TuneDb db;
    double cost = 0.0;
    for (std::size_t i = 0; i < worlds_.size(); ++i) {
      HanWorld& hw = *worlds_[i];
      tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
      tune::TuneReport cold;
      if (trace == nullptr) {
        cold = tuner.tune(opts_);
      } else {
        Span s(trace, "Tuner::tune (replayed)");
        cold = replay_tune(tuner, hw, trace);
      }
      const std::string text = cold.table.serialize();
      Fleet& f = first_[i];
      if (f.table.empty()) {
        f = Fleet{text, cold.tuning_cost};
      } else {
        // Bit-identical across passes, and between Tuner::tune and its
        // replay through the public Searcher calls.
        r_.check(text == f.table && cold.tuning_cost == f.cost,
                 "a cold tune differs from the first one of its machine");
      }
      db.ingest(tune::signature_of(hw.world.profile()), cold.table);
      Span ws(trace, "tune::warm_tune");
      const tune::WarmStartReport warm = tune::warm_tune(db, tuner, opts_);
      const double warm_s = ws.stop();
      const long entries = static_cast<long>(cold.table.size());
      r_.attempted += entries;
      r_.failed += entries - std::min<long>(entries, warm.reused);
      r_.check(warm.retuned == 0 && warm.table.serialize() == text,
               "warm_tune did not reuse every bucket");
      cost += cold.tuning_cost;
      if (trace != nullptr) {
        warm_s_ += warm_s;
        warm_reused_ += warm.reused;
      }
      gauge.maybe_sample();
    }
    if (trace != nullptr) ++traced_passes_;
    pass_cost_ = cost;
  }

  void finish(Result& r, HostTrace* /*trace*/) override {
    r.correct = r.correct && r_.correct;
    r.attempted += r_.attempted;
    r.failed += r_.failed;
    r.values["sim_us"] = pass_cost_ * 1e6;
    r.values["sim.tune_cost_s"] = pass_cost_;
    if (traced_passes_ > 0) {
      const double n = traced_passes_;
      r.values["tune.prepare_s"] = prepare_s_ / n;
      r.values["tune.estimate_s"] = estimate_s_ / n;
      r.values["tune.taskbench.runs"] = taskbench_runs_ / n;
      r.values["tune.model_estimates"] = estimates_ / n;
      r.values["tune.warm_s"] = warm_s_ / n;
      r.values["tune.warm.reused"] = warm_reused_ / n;
    }
  }

 private:
  struct Fleet {
    std::string table;
    double cost = 0.0;
  };

  /// Tuner::tune at jobs 1, replayed through the public Searcher calls so
  /// prepare (task benchmarks) and estimate (cost model) are timed apart:
  /// one private world per kind, winners inserted in kind order, the same
  /// arithmetic on the tuning cost.
  tune::TuneReport replay_tune(tune::Tuner& tuner, HanWorld& hw,
                               HostTrace* trace) {
    std::vector<CollKind> kinds = opts_.kinds;
    std::sort(kinds.begin(), kinds.end());
    std::vector<std::size_t> sizes = opts_.message_sizes;
    std::sort(sizes.begin(), sizes.end());
    core::Hierarchy& hc = hw.han.flat_hierarchy(hw.world.world_comm());
    tune::TuneReport rep;
    for (CollKind kind : kinds) {
      HanWorld job(hw.world.profile(), hw.world.options());
      tune::Searcher s(job.world, job.han, job.world.world_comm(),
                       tuner.searcher().space());
      const double cost0 = s.tuning_cost();
      {
        Span p(trace, "Searcher::prepare");
        s.prepare(kind, opts_.heuristics);
        prepare_s_ += p.stop();
      }
      for (std::size_t m : sizes) {
        Span e(trace, "Searcher::estimate");
        const tune::SearchResult res = s.estimate(kind, m, opts_.heuristics);
        estimate_s_ += e.stop();
        estimates_ += res.evaluations;
        if (res.best) {
          rep.table.insert(kind, hc.node_count(), hc.max_ppn(), m,
                           res.best->cfg);
        }
      }
      rep.tuning_cost += s.tuning_cost() - cost0;
      layer_.work.add(WorldWork::read(job.world), WorldWork{});
      layer_.note_pools(job.world);
      taskbench_runs_ +=
          job.world.metrics().counter("tune.taskbench.runs").value();
    }
    return rep;
  }

  std::vector<machine::MachineProfile> profiles_;
  tune::TunerOptions opts_;  // default kinds and sizes, jobs 1
  std::vector<std::unique_ptr<HanWorld>> worlds_;
  std::vector<Fleet> first_;
  Result r_;  // checks and counts gathered during the ops
  double pass_cost_ = 0.0;
  int traced_passes_ = 0;
  double prepare_s_ = 0, estimate_s_ = 0, taskbench_runs_ = 0, estimates_ = 0,
         warm_s_ = 0, warm_reused_ = 0;
};

// --- analyze-sweep -----------------------------------------------------------

/// The three analyzers: the verify sweep over the full search space, the
/// lint sweep, and schedule synthesis. Static analysis, cost-model pricing
/// and small simulations. The set-up is the reference pass: its reports
/// are what every timed pass must reproduce byte for byte. Set-up and timed
/// passes run at jobs 1: at jobs 2 the spread between runs on a shared
/// 4-vCPU machine was 10-19%, at jobs 1 3%. The parallel layer (han::par)
/// runs in the gate, where a jobs-2 pass must reproduce the reports byte
/// for byte, and traced runs time it.
class AnalyzeSweep final : public Workload {
 public:
  explicit AnalyzeSweep(const Options& o) {
    verify_.full_space = !o.smoke;
    // One lint call prices all its machines at the same bands, so there
    // are two calls: the flat machine and the NUMA-split one (3-level
    // search space) at two small bands, which give the cross-band checks;
    // and the 4-rail machine at 4 MB, where the striped-twin checks start,
    // without the perturbation family the first call already runs. Wider
    // bands on these machines would make a pass too long for a steady
    // median (4 MB on the NUMA machine alone takes 3 s).
    lint::LintOptions flat_numa;
    flat_numa.machines = {"aries2x8", "aries_numa2x2x4"};
    flat_numa.sizes = {64 << 10, 256 << 10};
    if (o.smoke) flat_numa.sizes = {64 << 10};
    lint::LintOptions rail;
    rail.machines = {"aries_rail4"};
    rail.sizes = {4 << 20};
    rail.perturb = false;
    lint_ = {flat_numa, rail};
    // The seed trims the synthesized message sizes (by under 0.3%, keeping
    // every segment count): the winners' simulated times move, the search
    // work does not. Winner times are not monotonic in the trim (1M
    // allreduce: -0.8% at 3 KB, -1.2% at 7 KB), so the trim stays small.
    sim::Rng rng(o.seed);
    synth_.sizes = {(64u << 10) - 64 * rng.next_below(4),
                    (1u << 20) - 1024 * rng.next_below(4)};
  }

  void setup() override {
    const Pass p = pass(1, nullptr, nullptr);
    if (!reference_.verify.empty()) {
      r_.check(same_reports(p, reference_), "set-up passes differ");
    }
    reference_ = p;
  }

  int min_ops() const override { return 2; }

  /// The traced half runs lint one family per call.
  bool traced_op_same() const override { return false; }

  void op(HostTrace* trace, SpeedGauge& gauge) override {
    const Pass p = pass(1, trace, &gauge);
    if (trace == nullptr) {
      untraced_s_.push_back(p.host_s);
      r_.check(same_reports(p, reference_),
               "an analyzer pass differs from the reference pass");
    } else {
      r_.check(p.verify == reference_.verify && p.synth == reference_.synth &&
                   p.lint_checks == reference_.lint_checks &&
                   p.lint_errors == reference_.lint_errors,
               "a traced analyzer pass differs from the reference pass");
    }
  }

  void finish(Result& r, HostTrace* trace) override {
    // jobs 2 must reproduce the jobs-1 reports byte for byte.
    Span gate(trace, "jobs-2 pass", "gate");
    const Pass parallel = pass(kParallelJobs, nullptr, nullptr);
    gate.stop();
    r_.check(same_reports(parallel, reference_),
             "jobs 1 and jobs 2 reports differ");
    r.correct = r.correct && r_.correct;
    r.attempted += r_.attempted;
    r.failed += r_.failed;
    r.values["sim_us"] = reference_.winner_us;
    if (traced_ > 0) {
      const double n = traced_;
      r.values["verify.sweep_s"] = verify_s_ / n;
      r.values["verify.cases"] = reference_.verify_cases;
      r.values["verify.actions"] = reference_.verify_actions;
      r.values["lint.model_s"] = lint_s_[0] / n;
      r.values["lint.sim_s"] = lint_s_[1] / n;
      r.values["lint.perturb_s"] = lint_s_[2] / n;
      r.values["lint.checks"] = reference_.lint_checks;
      r.values["synth.run_s"] = synth_s_ / n;
      r.values["synth.cases"] = reference_.synth_cases;
      const double speedup = median(untraced_s_) / parallel.host_s;
      r.values["par.speedup_j2"] = speedup;
      r.values["par.efficiency"] = speedup / kParallelJobs;
    }
  }

 private:
  static constexpr int kParallelJobs = 2;

  struct Pass {
    std::string verify, lint, synth;  // the tools' JSON reports
    double verify_cases = 0, verify_actions = 0, lint_checks = 0,
           lint_errors = 0, synth_cases = 0;
    double winner_us = 0;  // mean simulated time of the synthesized winners
    double host_s = 0;     // in the three tools (raw)
  };

  static bool same_reports(const Pass& a, const Pass& b) {
    return a.verify == b.verify && a.lint == b.lint && a.synth == b.synth;
  }

  /// One pass of the three tools, sampling `gauge` (if any) between
  /// them. Traced passes run lint one family per call, so each family's
  /// host time shows apart, and keep no lint report.
  Pass pass(int jobs, HostTrace* trace, SpeedGauge* gauge) {
    Pass p;
    verify::SweepOptions vo = verify_;
    vo.jobs = jobs;
    Span vs(trace, "verify::run_sweep");
    const verify::SweepResult v = verify::run_sweep(vo);
    const double v_s = vs.stop();
    p.verify = v.to_json();
    p.verify_cases = static_cast<double>(v.entries.size());
    for (const verify::SweepEntry& e : v.entries) {
      p.verify_actions += e.actions;
      count_case(e.errors);
    }
    if (gauge != nullptr) gauge->maybe_sample();

    double l_s = 0.0;
    for (const lint::LintOptions& call : lint_) {
      lint::LintOptions lo = call;
      lo.jobs = jobs;
      if (trace == nullptr) {
        Span ls(nullptr, "lint::run_lint");
        const lint::LintResult l = lint::run_lint(lo);
        l_s += ls.stop();
        p.lint += l.to_json();
        add_lint(p, l);
        continue;
      }
      static constexpr const char* kFamilies[] = {"lint::run_lint model",
                                                  "lint::run_lint sim",
                                                  "lint::run_lint perturb"};
      const bool enabled[] = {lo.model, lo.sim, lo.perturb};
      for (int f = 0; f < 3; ++f) {
        if (!enabled[f]) continue;
        lint::LintOptions one = lo;
        one.model = f == 0;
        one.sim = f == 1;
        one.perturb = f == 2;
        Span ls(trace, kFamilies[f]);
        const lint::LintResult l = lint::run_lint(one);
        const double f_s = ls.stop();
        lint_s_[f] += f_s;
        l_s += f_s;
        add_lint(p, l);
      }
    }
    if (gauge != nullptr) gauge->maybe_sample();

    synth::SynthOptions so = synth_;
    so.jobs = jobs;
    Span ss(trace, "synth::run_synthesis");
    const synth::SynthResult s = synth::run_synthesis(so);
    const double s_s = ss.stop();
    p.synth = s.to_json();
    p.synth_cases = static_cast<double>(s.cases.size());
    double winners = 0.0;
    int won = 0;
    for (const synth::SynthCase& c : s.cases) {
      const bool ok = c.winner >= 0;
      if (ok) {
        winners += c.finalists[static_cast<std::size_t>(c.winner)].time;
        ++won;
      }
      count_case(ok ? 0 : 1);
    }
    r_.check(s.finalist_findings() == 0, "a synthesized finalist has findings");
    p.winner_us = won > 0 ? winners / won * 1e6 : 0.0;
    p.host_s = v_s + l_s + s_s;
    if (trace != nullptr) {
      verify_s_ += v_s;
      synth_s_ += s_s;
      ++traced_;
    }
    return p;
  }

  void add_lint(Pass& p, const lint::LintResult& l) {
    p.lint_checks += l.total_checks();
    p.lint_errors += l.total_errors();
    for (const lint::LintEntry& e : l.entries) count_case(e.errors);
  }

  void count_case(int errors) {
    ++r_.attempted;
    if (errors > 0) ++r_.failed;
  }

  verify::SweepOptions verify_;
  std::vector<lint::LintOptions> lint_;
  synth::SynthOptions synth_;
  Pass reference_;
  Result r_;
  std::vector<double> untraced_s_;
  int traced_ = 0;
  double verify_s_ = 0, synth_s_ = 0, lint_s_[3] = {};
};

// --- Isolated probes (traced runs) -------------------------------------------

/// Host ns per engine event: 16K events scheduled at random times, then
/// fired; the median of 20 rounds.
double probe_engine_ns_per_event() {
  constexpr int kEvents = 16384;
  sim::Rng rng(1);
  std::vector<double> samples;
  for (int rep = 0; rep < 20; ++rep) {
    sim::Engine e;
    long fired = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      e.schedule_at(rng.uniform(0.0, 1e-3), [&fired] { ++fired; });
    }
    e.run();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 / fired);
  }
  return median(samples);
}

/// Host ns per flow: 512 flows over random pairs of 16 shared resources,
/// started together and run to completion; the median of 10 rounds.
double probe_flownet_ns_per_flow() {
  constexpr int kFlows = 512;
  constexpr int kResources = 16;
  sim::Rng rng(2);
  std::vector<double> samples;
  for (int rep = 0; rep < 10; ++rep) {
    sim::Engine e;
    net::FlowNet f(e);
    for (int r = 0; r < kResources; ++r) {
      f.add_resource("r" + std::to_string(r), 1e10);
    }
    long done = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kFlows; ++i) {
      const auto a = static_cast<net::ResourceId>(rng.next_below(kResources));
      const auto b = static_cast<net::ResourceId>(
          (a + 1 + rng.next_below(kResources - 1)) % kResources);
      const net::ResourceId path[] = {a, b};
      f.start_flow(path, rng.uniform(1e3, 1e6), net::FlowNet::no_cap(),
                   [&done] { ++done; });
    }
    e.run();
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 / done);
  }
  return median(samples);
}

/// Host ns per HanModule::decide and per TaskGraph build, over
/// coll-replay's (kind, size) keys on a fresh 64-rank aries stack whose
/// lookup table holds the default config of each key.
std::pair<double, double> probe_front_end(bool smoke) {
  vendor::HanStack st(machine::make_aries(smoke ? 2 : 8, 8));
  core::HanModule& han = st.han();
  const mpi::Comm& comm = st.world().world_comm();
  const int n = comm.size();
  core::Hierarchy& hc = han.hierarchy(comm);
  han.flat_hierarchy(comm);
  tune::LookupTable table;
  for (CollKind k : kReplayKinds) {
    for (std::size_t b : kReplaySizes) {
      table.insert(k, hc.node_count(), hc.max_ppn(), b,
                   core::HanModule::default_config(k, hc.node_count(),
                                                   hc.max_ppn(), b));
    }
  }
  han.set_decider(table.decider());

  constexpr int kDecideRounds = 2000;
  std::size_t sink = 0;
  Clock::time_point t0 = Clock::now();
  for (int it = 0; it < kDecideRounds; ++it) {
    for (CollKind k : kReplayKinds) {
      for (std::size_t b : kReplaySizes) sink += han.decide(k, comm, b).fs;
    }
  }
  const double decide_ns = seconds_between(t0, Clock::now()) * 1e9 /
                           (kDecideRounds * 12.0);

  const mpi::Datatype t = mpi::Datatype::Int32;
  long builds = 0;
  t0 = Clock::now();
  for (int it = 0; it < 4; ++it) {
    for (CollKind k : kReplayKinds) {
      for (std::size_t b : kReplaySizes) {
        const core::HanConfig cfg = han.decide(k, comm, b);
        const mpi::BufView full{nullptr, b, t};
        const mpi::BufView block{nullptr, b / static_cast<std::size_t>(n), t};
        for (int me = 0; me < n; ++me) {
          task::TaskGraph g;
          switch (k) {
            case CollKind::Bcast:
              g = task::build_bcast(han, comm, me, 0, full, t, cfg);
              break;
            case CollKind::Allreduce:
              g = task::build_allreduce(han, comm, me, full, full, t,
                                        mpi::ReduceOp::Sum, cfg);
              break;
            case CollKind::ReduceScatter:
              g = task::build_reduce_scatter(han, comm, me, full, block, t,
                                             mpi::ReduceOp::Sum, cfg);
              break;
            default:
              g = task::build_allgather(han, comm, me, block, full, cfg);
              break;
          }
          sink += g.nodes.size();
          ++builds;
        }
      }
    }
  }
  const double build_ns = seconds_between(t0, Clock::now()) * 1e9 / builds;
  if (sink == 0) std::fprintf(stderr, "han_perf: empty probe\n");
  return {decide_ns, build_ns};
}

// --- Main --------------------------------------------------------------------

/// The workload `o` names, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "coll-replay") return std::make_unique<CollReplay>(o);
  if (o.workload == "train-steps") return std::make_unique<TrainSteps>(o);
  if (o.workload == "tune-fleet") return std::make_unique<TuneFleet>(o);
  if (o.workload == "analyze-sweep") return std::make_unique<AnalyzeSweep>(o);
  return nullptr;
}

struct Interval {
  Clock::time_point start, end;
  double seconds() const { return seconds_between(start, end); }
};

/// Repeat `w.op` until `seconds` have passed and at least min_ops ran,
/// sampling the machine's speed as it goes; returns each op's interval.
std::vector<Interval> timed_phase(Workload& w, double seconds,
                                  SpeedGauge& gauge, HostTrace* trace,
                                  HostTrace* phase_trace, const char* phase) {
  Span ps(phase_trace, phase, "phase");
  gauge.sample();
  std::vector<Interval> ops;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(ops.size()) < w.min_ops() ||
         seconds_between(start, Clock::now()) < seconds) {
    Span s(trace, "op", "op");
    Interval i{Clock::now(), {}};
    w.op(trace, gauge);
    i.end = Clock::now();
    s.stop();
    ops.push_back(i);
    gauge.maybe_sample();
  }
  gauge.sample();
  return ops;
}

std::vector<double> raw(const std::vector<Interval>& v) {
  std::vector<double> out;
  for (const Interval& i : v) out.push_back(i.seconds());
  return out;
}

std::vector<double> normalized(const std::vector<Interval>& v,
                               const SpeedGauge& gauge) {
  std::vector<double> out;
  for (const Interval& i : v) out.push_back(gauge.normalize(i.start, i.end));
  return out;
}

/// The process's own peak resident set (VmHWM). getrusage's ru_maxrss would
/// carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return NAN;
}

Result run(const Options& o, Workload* w, HostTrace* trace) {
  SpeedGauge gauge;
  Result r;
  Span top(trace, o.workload, "workload");

  // At least three set-ups (one in smoke runs) and at least a quarter
  // second of them, so millisecond set-ups get a steady median too.
  std::vector<Interval> setups;
  {
    Span s(trace, "setup", "phase");
    const int min_reps = o.smoke ? 1 : 3;
    const double min_s = o.smoke ? 0.0 : 0.25;
    double total = 0.0;
    gauge.sample();
    while (static_cast<int>(setups.size()) < min_reps || total < min_s) {
      Span one(trace, "setup", "call");
      Interval i{Clock::now(), {}};
      w->setup();
      i.end = Clock::now();
      setups.push_back(i);
      total += i.seconds();
      gauge.maybe_sample();
    }
    gauge.sample();
  }

  std::vector<Interval> ops;
  if (!o.trace) {
    ops = timed_phase(*w, o.seconds, gauge, nullptr, nullptr, "timed");
  } else {
    const std::vector<Interval> plain = timed_phase(
        *w, o.seconds / 2, gauge, nullptr, trace, "untraced half");
    ops = timed_phase(*w, o.seconds / 2, gauge, trace, trace, "traced half");
    r.values["op_ms.p50"] = median(raw(plain)) * 1e3;
    r.values["op_ms.p95"] = quantile(raw(plain), 0.95) * 1e3;
    if (w->traced_op_same()) {
      r.values["trace.overhead_pct"] = (mean(normalized(ops, gauge)) /
                                            mean(normalized(plain, gauge)) -
                                        1.0) *
                                       100;
    }
  }

  {
    Span s(trace, "gate", "phase");
    w->finish(r, trace);
  }
  // op_ms is the mean op, not the median: the machine's speed swings
  // within seconds, and over ten 10-second runs of every workload the
  // mean spread less (coll-replay 7.8% against 9.3%, tune-fleet 8.1%
  // against 11.0%).
  r.values["op_ms"] = mean(normalized(ops, gauge)) * 1e3;
  r.values["setup_s"] = median(normalized(setups, gauge));
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.raw_op_ms = mean(raw(ops)) * 1e3;
  r.raw_setup_s = median(raw(setups));
  r.reference_ms = gauge.reference_ms();

  if (o.trace) {
    const LayerWork& l = w->layer();
    const double n = static_cast<double>(ops.size());
    double host = 0.0;
    for (const Interval& i : ops) host += i.seconds();
    const double colls = l.collectives;
    r.values["host.reference_ms"] = r.reference_ms;
    // The simulated-world layers, when the workload's own worlds ran (the
    // analyzers build theirs inside the library).
    if (l.work.events > 0) {
      r.values["engine.events"] = l.work.events / n;
      r.values["engine.events_per_s"] = l.work.events / host;
      r.values["engine.pool_capacity"] = static_cast<double>(l.engine_pool);
      r.values["net.flows.started"] = l.work.flows / n;
      r.values["flownet.pool_capacity"] = static_cast<double>(l.flow_pool);
      r.values["mpi.messages"] = l.work.messages / n;
      r.values["coll.actions"] = l.work.actions / n;
      r.values["sim.level.intra.busy_s"] = l.work.busy[0] / n;
      r.values["sim.level.mid.busy_s"] = l.work.busy[1] / n;
      r.values["sim.level.inter.busy_s"] = l.work.busy[2] / n;
      r.values["han.task.graphs"] = l.work.graphs / n;
      r.values["han.task.nodes"] = l.work.nodes / n;
    }
    // The issue front end, when the workload calls MpiStack::i* itself.
    if (l.issue_calls > 0) {
      r.values["mpi.messages_per_coll"] = l.work.messages / colls;
      r.values["coll.actions_per_coll"] = l.work.actions / colls;
      r.values["han.issue_s"] = l.issue_s / n;
      r.values["han.issue_share"] = l.issue_s / host;
      trace->add_calls("MpiStack::i*", l.issue_calls,
                       static_cast<std::int64_t>(l.issue_s * 1e9));
    }

    Span s(trace, "probes", "phase");
    {
      Span p(trace, "engine probe");
      r.values["engine.ns_per_event"] = probe_engine_ns_per_event();
    }
    {
      Span p(trace, "flownet probe");
      r.values["flownet.ns_per_flow"] = probe_flownet_ns_per_flow();
    }
    Span p(trace, "decide/build probe");
    const auto [decide_ns, build_ns] = probe_front_end(o.smoke);
    r.values["han.decide_ns"] = decide_ns;
    r.values["han.build_ns"] = build_ns;
  }
  return r;
}

void print_result(const Result& r, bool traced) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  // A per-layer metric the workload never set reads 0 and is listed under
  // "n/a" (layer not exercised); a missing or non-finite end-to-end one is
  // left out, which run.py rejects.
  std::string not_applicable;
  const char* sep = "";
  for (const MetricDef& m : traced ? std::span<const MetricDef>(kPerLayer)
                                   : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.values.find(m.name);
    double v = it != r.values.end() ? it->second : NAN;
    if (it == r.values.end() && traced) {
      v = 0.0;
      not_applicable += (not_applicable.empty() ? "\"" : ", \"") +
                        std::string(m.name) + "\"";
    }
    if (!std::isfinite(v)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                v, m.unit);
    sep = ", ";
  }
  std::printf("}, \"n/a\": [%s], \"raw\": {\"op_ms\": %.17g, "
              "\"setup_s\": %.17g, \"reference_ms\": %.17g}, "
              "\"build\": {\"type\": \"%s\", \"compiler\": \"%s\"}}\n",
              not_applicable.c_str(), r.raw_op_ms, r.raw_setup_s,
              r.reference_ms, HAN_PERF_BUILD_TYPE, HAN_PERF_COMPILER);
}

int usage() {
  std::fprintf(stderr,
               "usage: han_perf --workload coll-replay|train-steps|tune-fleet|"
               "analyze-sweep --seed N --seconds T [--trace] [--smoke] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace han::perf

int main(int argc, char** argv) {
  using namespace han::perf;
  Options o;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return usage();
    }
  }
  const std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr || !(o.seconds > 0.0)) return usage();

  HostTrace trace;
  const Result r = run(o, w.get(), o.trace ? &trace : nullptr);
  if (o.trace && !trace_out.empty() && !trace.write(trace_out)) {
    std::fprintf(stderr, "han_perf: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  print_result(r, o.trace);
  return 0;
}
