// Tests for the execution tracer: span collection, Chrome-trace JSON, the
// runtime's action spans and saving to a file.
#include <gtest/gtest.h>

#include <cstdio>

#include "coll_test_util.hpp"
#include "simbase/trace.hpp"

namespace han::sim {
namespace {

TEST(TracerTest, CollectsAndSerializesSpans) {
  Tracer tr;
  tr.span(0, "coll", "send 4K", 1e-6, 3e-6);
  tr.span(1, "coll", "recv \"q\"", 2e-6, 5e-6);
  EXPECT_EQ(tr.size(), 2u);
  const std::string json = tr.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("send 4K"), std::string::npos);
  EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
}

TEST(TracerTest, RuntimeEmitsActionSpans) {
  test::CollHarness h(machine::make_aries(2, 2), /*data_mode=*/false);
  Tracer tr;
  h.rt.set_tracer(&tr);
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    return h.mods.libnbc().ibcast(h.world.world_comm(), rank.world_rank, 0,
                                  mpi::BufView::timing_only(4096),
                                  mpi::Datatype::Byte, coll::CollConfig{});
  });
  EXPECT_GT(tr.size(), 0u);
  bool saw_send = false, saw_recv = false;
  for (const auto& s : tr.spans()) {
    saw_send |= s.name.rfind("send", 0) == 0;
    saw_recv |= s.name.rfind("recv", 0) == 0;
    EXPECT_GE(s.duration, 0.0);
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST(TracerTest, FileRoundTrip) {
  Tracer tr;
  tr.span(0, "x", "y", 0.0, 1e-6);
  const std::string path = "/tmp/han_trace_test.json";
  EXPECT_TRUE(tr.save(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace han::sim
