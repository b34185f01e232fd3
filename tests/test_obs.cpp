// han::obs tests: metric primitives (time-weighted gauge math, weighted
// histograms), golden snapshots of the JSON/CSV/trace exports, JSON
// validity (including control-character escaping), the instrumentation
// threaded through the stack (flownet utilization, collective runtime
// kind/level counters, HAN decision counters), and byte-for-byte
// determinism of reports across identical runs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "coll_test_util.hpp"
#include "han/han.hpp"
#include "json_validator.hpp"
#include "obs/report.hpp"
#include "simbase/trace.hpp"

namespace han::obs {
namespace {

using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;
using test::JsonValidator;
using test::run_collective;

// --- Primitives ----------------------------------------------------------

TEST(ObsCounter, Accumulates) {
  MetricsRegistry m;
  Counter& c = m.counter("x");
  c.add(2.0);
  c.add(3.5);
  EXPECT_DOUBLE_EQ(c.value(), 5.5);
  EXPECT_EQ(&m.counter("x"), &c);  // find-or-create returns the same slot
  EXPECT_EQ(m.metric_count(), 1u);
}

TEST(ObsGauge, TimeWeightedStats) {
  MetricsRegistry m;
  Gauge& g = m.gauge("inflight");
  g.set(0.0, 1.0);
  g.set(0.5, 2.0);  // [0, 0.5) at 1.0
  g.set(1.0, 0.0);  // [0.5, 1) at 2.0; zero afterwards
  // Window closes at t = 2: integral 1.5 over 2s, nonzero for 1s.
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 2.0);
  EXPECT_DOUBLE_EQ(g.mean(2.0), 0.75);
  EXPECT_DOUBLE_EQ(g.active_seconds(2.0), 1.0);
  EXPECT_DOUBLE_EQ(g.mean_active(2.0), 1.5);  // overlap ratio
}

TEST(ObsGauge, PendingIntervalCountsTowardMean) {
  MetricsRegistry m;
  Gauge& g = m.gauge("g");
  g.set(0.0, 4.0);
  // No update since t=0; querying at t=2 must include the open interval.
  EXPECT_DOUBLE_EQ(g.mean(2.0), 4.0);
  EXPECT_DOUBLE_EQ(g.active_seconds(2.0), 2.0);
}

TEST(ObsHistogram, WeightedBucketsAndQuantiles) {
  MetricsRegistry m;
  Histogram& h = m.histogram("lat", {1.0, 2.0});
  h.observe(0.5);       // bucket [<=1]
  h.observe(1.5, 2.0);  // bucket (1, 2], weight 2
  h.observe(5.0);       // overflow
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(h.weighted_mean(), 2.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  ASSERT_EQ(h.weights().size(), 3u);
  EXPECT_DOUBLE_EQ(h.weights()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.weights()[1], 2.0);
  EXPECT_DOUBLE_EQ(h.weights()[2], 1.0);
}

TEST(ObsGauge, TracerMirrorDedupesUnchangedValues) {
  sim::Tracer tracer;
  MetricsRegistry m;
  m.set_tracer(&tracer);
  Gauge& g = m.gauge("util");
  g.set(0.0, 1.0);
  g.set(1.0, 1.0);  // unchanged — no new sample
  g.set(2.0, 0.5);
  ASSERT_EQ(tracer.counter_count(), 2u);
  EXPECT_EQ(tracer.counters()[0].name, "util");
  EXPECT_DOUBLE_EQ(tracer.counters()[1].value, 0.5);
}

// --- Golden snapshots ----------------------------------------------------

MetricsRegistry& golden_registry(MetricsRegistry& m) {
  m.set_meta("binary", "golden");
  m.counter("coll.bytes").add(4096.0);
  Gauge& g = m.gauge("inflight");
  g.set(0.0, 1.0);
  g.set(0.5, 2.0);
  g.set(1.0, 0.0);
  Histogram& h = m.histogram("lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5, 2.0);
  h.observe(5.0);
  return m;
}

TEST(ObsExport, GoldenJson) {
  MetricsRegistry m;
  const std::string json = golden_registry(m).to_json(2.0);
  EXPECT_EQ(json,
            "{\n"
            "\"meta\":{\"binary\":\"golden\"},\n"
            "\"sim_seconds\":2,\n"
            "\"counters\":{\n"
            "\"coll.bytes\":4096},\n"
            "\"gauges\":{\n"
            "\"inflight\":{\"value\":0,\"mean\":0.75,\"mean_active\":1.5,"
            "\"active_seconds\":1,\"max\":2}},\n"
            "\"histograms\":{\n"
            "\"lat\":{\"weight\":4,\"mean\":2.125,\"p50\":2,\"p99\":2,"
            "\"bounds\":[1,2],\"weights\":[1,2,1]}}\n"
            "}\n");
  EXPECT_TRUE(JsonValidator::valid(json));
}

TEST(ObsExport, GoldenCsv) {
  MetricsRegistry m;
  EXPECT_EQ(golden_registry(m).to_csv(2.0),
            "type,name,field,value\n"
            "meta,binary,value,golden\n"
            "run,sim_seconds,value,2\n"
            "counter,coll.bytes,value,4096\n"
            "gauge,inflight,value,0\n"
            "gauge,inflight,mean,0.75\n"
            "gauge,inflight,mean_active,1.5\n"
            "gauge,inflight,active_seconds,1\n"
            "gauge,inflight,max,2\n"
            "histogram,lat,weight,4\n"
            "histogram,lat,mean,2.125\n"
            "histogram,lat,p50,2\n"
            "histogram,lat,p99,2\n");
}

TEST(ObsExport, GoldenTrace) {
  sim::Tracer t;
  t.span(1, "coll", "a\"b\\c\x01", 0.0, 1e-6, 3);
  t.counter("util", 0.0, 0.5, 3);
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json,
            "{\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\","
            "\"args\":{\"name\":\"node 3\"}},\n"
            "{\"ph\":\"M\",\"pid\":3,\"tid\":1,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"rank 1\"}},\n"
            "{\"ph\":\"X\",\"pid\":3,\"tid\":1,\"cat\":\"coll\","
            "\"name\":\"a\\\"b\\\\c\\u0001\",\"ts\":0.000,\"dur\":1.000},\n"
            "{\"ph\":\"C\",\"pid\":3,\"name\":\"util\",\"ts\":0.000,"
            "\"args\":{\"value\":0.5}}\n"
            "]}\n");
  EXPECT_TRUE(JsonValidator::valid(json));
}

TEST(ObsExport, ControlCharsInMetaStayValidJson) {
  MetricsRegistry m;
  m.set_meta("cmd", "a\nb\tc\x02");
  const std::string json = m.to_json(0.0);
  EXPECT_TRUE(JsonValidator::valid(json));
  EXPECT_NE(json.find("\\u000a"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
}

TEST(ObsExport, WriteReportCreatesBothFiles) {
  MetricsRegistry m;
  golden_registry(m);
  const std::string base = ::testing::TempDir() + "obs_report_test";
  ASSERT_TRUE(write_report(m, 2.0, base));
  for (const char* ext : {".json", ".csv"}) {
    std::FILE* f = std::fopen((base + ext).c_str(), "rb");
    ASSERT_NE(f, nullptr) << base << ext;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0);
    std::fclose(f);
    std::remove((base + ext).c_str());
  }
}

// --- Instrumented simulation ---------------------------------------------

struct HanHarness : test::CollHarness {
  explicit HanHarness(machine::MachineProfile profile)
      : CollHarness(std::move(profile), /*data_mode=*/false),
        han(world, rt, mods) {}
  core::HanModule han;
};

void run_han_allreduce(HanHarness& h, std::size_t bytes) {
  run_collective(h.world, [&](mpi::Rank& rank) -> mpi::Request {
    return h.han.iallreduce(h.world.world_comm(), rank.world_rank,
                            BufView::timing_only(bytes),
                            BufView::timing_only(bytes), Datatype::Float,
                            ReduceOp::Sum, coll::CollConfig{});
  });
}

TEST(ObsPipeline, CollectiveFillsTheRegistry) {
  HanHarness h(machine::make_aries(2, 4));
  run_han_allreduce(h, 1 << 20);
  MetricsRegistry& m = h.world.metrics();
  const sim::Time now = h.world.now();

  // MPI + flownet layers saw traffic.
  EXPECT_GT(m.counter("mpi.messages").value(), 0.0);
  EXPECT_GT(m.counter("mpi.p2p_bytes").value(), 0.0);
  EXPECT_GT(m.counter("net.flows.started").value(), 0.0);
  EXPECT_DOUBLE_EQ(m.counter("net.flows.started").value(),
                   m.counter("net.flows.completed").value());
  EXPECT_GT(m.gauge("net.res.fabric.util").max(), 0.0);
  EXPECT_GT(m.counter("net.res.fabric.bytes").value(), 0.0);
  EXPECT_GT(m.histogram("net.fabric.queue_depth").total_weight(), 0.0);

  // Collective runtime: per-kind and per-level accounting.
  EXPECT_GT(m.counter("coll.actions.send").value(), 0.0);
  EXPECT_GT(m.counter("coll.bytes.send").value(), 0.0);
  EXPECT_GT(m.counter("coll.busy_seconds.send").value(), 0.0);
  EXPECT_GE(m.gauge("coll.inflight").max(), 1.0);
  EXPECT_GE(m.gauge("coll.inflight").mean_active(now), 1.0);
  EXPECT_GT(m.histogram("coll.action_seconds").total_weight(), 0.0);
  EXPECT_GT(m.counter("coll.level.intra.actions").value(), 0.0);
  EXPECT_GT(m.counter("coll.level.inter.actions").value(), 0.0);
  EXPECT_GE(m.gauge("coll.level.inter.inflight").mean_active(now), 1.0);

  // HAN decision layer.
  EXPECT_DOUBLE_EQ(m.counter("han.decide.allreduce").value(), 8.0);
  EXPECT_GT(m.counter("han.decide.bytes").value(), 0.0);
}

TEST(ObsPipeline, TracerSpansCarryTheNodeAsPid) {
  sim::Tracer tracer;
  HanHarness h(machine::make_aries(2, 4));
  h.world.set_tracer(&tracer);
  h.rt.set_tracer(&tracer);
  run_han_allreduce(h, 256 << 10);
  ASSERT_GT(tracer.size(), 0u);
  ASSERT_GT(tracer.counter_count(), 0u);
  bool node1 = false;
  for (const sim::Tracer::Span& s : tracer.spans()) {
    EXPECT_EQ(s.pid, s.tid / 4) << "pid must be the rank's node";
    node1 |= s.pid == 1;
  }
  EXPECT_TRUE(node1);
  EXPECT_TRUE(JsonValidator::valid(tracer.to_chrome_json()));
}

// Two identical runs must produce byte-identical reports and traces —
// the property EXPERIMENTS.md relies on when committing figure metrics.
TEST(ObsPipeline, ReportsAreDeterministic) {
  auto run_once = [](std::string& json, std::string& csv,
                     std::string& trace) {
    sim::Tracer tracer;
    HanHarness h(machine::make_aries(3, 4));
    h.world.set_tracer(&tracer);
    h.rt.set_tracer(&tracer);
    run_han_allreduce(h, 512 << 10);
    json = h.world.metrics().to_json(h.world.now());
    csv = h.world.metrics().to_csv(h.world.now());
    trace = tracer.to_chrome_json();
  };
  std::string json1, csv1, trace1, json2, csv2, trace2;
  run_once(json1, csv1, trace1);
  run_once(json2, csv2, trace2);
  EXPECT_TRUE(JsonValidator::valid(json1));
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(csv1, csv2);
  EXPECT_EQ(trace1, trace2);
}

}  // namespace
}  // namespace han::obs
