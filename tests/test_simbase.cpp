// Unit tests for simbase: units, stats, RNG, event engine, coroutine glue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "simbase/cotask.hpp"
#include "simbase/engine.hpp"
#include "simbase/inline_fn.hpp"
#include "simbase/json.hpp"
#include "simbase/rng.hpp"
#include "simbase/slot_pool.hpp"
#include "simbase/small_vec.hpp"
#include "simbase/stats.hpp"
#include "simbase/table.hpp"
#include "simbase/units.hpp"
#include "json_validator.hpp"

namespace han::sim {
namespace {

// --- units ------------------------------------------------------------

TEST(Units, FormatBytesCollapsesPowerOfTwo) {
  EXPECT_EQ(format_bytes(0), "0");
  EXPECT_EQ(format_bytes(4), "4");
  EXPECT_EQ(format_bytes(1024), "1K");
  EXPECT_EQ(format_bytes(128 << 10), "128K");
  EXPECT_EQ(format_bytes(4 << 20), "4M");
  EXPECT_EQ(format_bytes(1ull << 30), "1G");
  EXPECT_EQ(format_bytes(1500), "1500");
}

TEST(Units, ParseBytesRoundTrip) {
  bool ok = false;
  EXPECT_EQ(parse_bytes("64K", &ok), 64u << 10);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_bytes("4M", &ok), 4u << 20);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_bytes("1G", &ok), 1ull << 30);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_bytes("128KB", &ok), 128u << 10);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_bytes("777", &ok), 777u);
  EXPECT_TRUE(ok);
}

TEST(Units, ParseBytesRejectsGarbage) {
  bool ok = true;
  EXPECT_EQ(parse_bytes("", &ok), 0u);
  EXPECT_FALSE(ok);
  parse_bytes("K4", &ok);
  EXPECT_FALSE(ok);
  parse_bytes("4X", &ok);
  EXPECT_FALSE(ok);
  parse_bytes("4KBs", &ok);
  EXPECT_FALSE(ok);
}

TEST(Units, ParseBytesRejectsOverflow) {
  bool ok = false;
  EXPECT_EQ(parse_bytes("18446744073709551615", &ok),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_bytes("17179869183G", &ok), ((1ull << 34) - 1) << 30);
  EXPECT_TRUE(ok);
  // Past uint64_t, in the digits or through the scale: rejected, never
  // wrapped (18446744073709551617 used to read as 1, and
  // 18014398509481985K as 1K).
  for (const char* text :
       {"18446744073709551616", "18446744073709551617",
        "99999999999999999999999", "18014398509481985K", "17179869184G",
        "17592186044416M"}) {
    ok = true;
    EXPECT_EQ(parse_bytes(text, &ok), 0u) << text;
    EXPECT_FALSE(ok) << text;
  }
}

TEST(Units, FormatTimePicksUnit) {
  EXPECT_EQ(format_time(3.2e-6), "3.20us");
  EXPECT_EQ(format_time(1.5e-3), "1.50ms");
  EXPECT_EQ(format_time(2.0), "2.00s");
}

// --- stats ------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Stats, MeanAndExtremes) {
  const std::vector<double> v{2.0, 8.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(max_of(v), 8.0);
  EXPECT_DOUBLE_EQ(min_of(v), 2.0);
}

// --- rng --------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

// --- engine -----------------------------------------------------------

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimesFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CancelDropsEvent) {
  Engine e;
  bool fired = false;
  EventId id = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(5.0, [&] { ++count; });
  e.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, NestedSchedulingFromCallback) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(1.0, [&] {
    e.schedule_after(0.5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

// --- engine: hot-path regression suite ---------------------------------
//
// The pooled-event engine must preserve the original implementation's
// determinism contract bit-for-bit. The trace below was captured from the
// seed (priority_queue + map) engine over a deliberately tie-heavy
// schedule; any queue or pool change that alters firing order fails here.

TEST(Engine, GoldenEventOrderTrace) {
  // Generator: 160 roots over 8 distinct timestamps (Rng(0xD373C7)),
  // every third callback schedules two children (one zero-delay into the
  // draining batch, one at +0.5), every seventh root is cancelled.
  Engine e;
  Rng rng(0xD373C7ull);
  std::vector<int> order;
  std::vector<EventId> ids;
  int next_id = 0;
  for (int i = 0; i < 160; ++i) {
    const double t = static_cast<double>(rng.next_below(8));
    const int id = next_id++;
    ids.push_back(e.schedule_at(t, [&, id] {
      order.push_back(id);
      if (id % 3 == 0) {
        const int c1 = next_id++;
        e.schedule_after(0.0, [&order, c1] { order.push_back(c1); });
        const int c2 = next_id++;
        e.schedule_after(0.5, [&order, c2] { order.push_back(c2); });
      }
    }));
  }
  for (int i = 0; i < 160; i += 7) e.cancel(ids[i]);
  e.run();

  static const int kGolden[] = {
    34, 36, 51, 58, 74, 76, 80, 90, 96, 117, 122, 127, 143, 160, 162, 164,
    166, 168, 161, 163, 165, 167, 169, 15, 18, 25, 30, 39, 47, 55, 66, 75,
    94, 95, 109, 131, 135, 139, 157, 170, 172, 174, 176, 178, 180, 182, 171, 173,
    175, 177, 179, 181, 183, 44, 46, 62, 64, 68, 83, 89, 101, 111, 116, 184,
    185, 8, 17, 26, 31, 38, 41, 45, 50, 57, 67, 72, 81, 97, 100, 102,
    108, 130, 134, 152, 186, 188, 190, 192, 194, 196, 187, 189, 191, 193, 195, 197,
    10, 22, 29, 40, 52, 59, 60, 79, 85, 88, 93, 121, 124, 128, 132, 137,
    144, 149, 151, 158, 198, 200, 202, 204, 199, 201, 203, 205, 3, 5, 9, 19,
    32, 48, 69, 73, 78, 87, 99, 110, 113, 118, 120, 129, 136, 138, 141, 146,
    148, 153, 156, 206, 208, 210, 212, 214, 216, 218, 220, 222, 224, 226, 228, 230,
    207, 209, 211, 213, 215, 217, 219, 221, 223, 225, 227, 229, 231, 1, 11, 12,
    20, 23, 27, 43, 71, 82, 107, 115, 145, 150, 232, 234, 236, 233, 235, 237,
    2, 4, 6, 13, 16, 24, 33, 37, 53, 54, 61, 65, 86, 92, 103, 104,
    106, 114, 123, 125, 142, 155, 159, 238, 240, 242, 244, 246, 248, 250, 239, 241,
    243, 245, 247, 249, 251  };
  ASSERT_EQ(order.size(), std::size(kGolden));
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], kGolden[i]) << "first divergence at position " << i;
  }
  EXPECT_EQ(e.events_processed(), std::size(kGolden));
  EXPECT_DOUBLE_EQ(e.now(), 7.5);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelReclaimsPoolSlots) {
  // Regression for the seed leak: cancelled events stayed in the callback
  // map forever. Schedule/cancel 10k events; the pool must recycle a small
  // working set instead of growing, and occupancy must return to zero.
  Engine e;
  for (int i = 0; i < 10000; ++i) {
    EventId id = e.schedule_at(static_cast<double>(i), [] {});
    e.cancel(id);
  }
  EXPECT_EQ(e.pending(), 0u);
  // Eager reclamation: one slot is recycled 10k times.
  EXPECT_LE(e.pool_capacity(), 16u);
  e.run();
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);

  // Cancel-heavy shape, as left behind by flows re-timed on every
  // rebalance: 4096 events over 257 timestamps, 75% cancelled before they
  // fire. Only the survivors fire, and a second round on the same engine
  // recycles the first round's slots instead of growing the pool.
  constexpr int kEvents = 4096;
  std::vector<EventId> ids;
  int fired = 0;
  std::size_t first_capacity = 0;
  for (int round = 0; round < 2; ++round) {
    ids.clear();
    const Time base = e.now();
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(e.schedule_at(base + static_cast<double>(i % 257),
                                  [&fired] { ++fired; }));
    }
    for (int i = 0; i < kEvents; ++i) {
      if (i % 4 != 0) e.cancel(ids[i]);
    }
    e.run();
    EXPECT_EQ(fired, (round + 1) * kEvents / 4);
    EXPECT_EQ(e.events_processed(),
              static_cast<std::uint64_t>((round + 1) * kEvents / 4));
    EXPECT_EQ(e.pending(), 0u);
    if (round == 0) first_capacity = e.pool_capacity();
  }
  EXPECT_LE(first_capacity, static_cast<std::size_t>(kEvents) + 16u);
  EXPECT_EQ(e.pool_capacity(), first_capacity);
}

TEST(Engine, CancelInterleavedWithFiring) {
  // Cancel half the events while the rest fire; pool occupancy and the
  // live count must both drain to zero, and capacity must stay bounded by
  // the peak live population (slots recycle through the free list).
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 100; ++round) {
    ids.clear();
    for (int i = 0; i < 100; ++i) {
      ids.push_back(
          e.schedule_at(static_cast<double>(round), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 100; i += 2) e.cancel(ids[i]);
    e.run();
  }
  EXPECT_EQ(fired, 100 * 50);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_LE(e.pool_capacity(), 256u);  // bounded by the peak of 100
}

TEST(Engine, StaleEventIdIsInertAfterSlotReuse) {
  Engine e;
  bool first = false, second = false;
  EventId a = e.schedule_at(1.0, [&] { first = true; });
  e.cancel(a);
  // The new event recycles a's slot but gets a fresh sequence number.
  EventId b = e.schedule_at(2.0, [&] { second = true; });
  EXPECT_EQ(a.slot, b.slot);
  e.cancel(a);  // stale handle: must not kill b
  e.cancel(a);  // double-cancel: no-op
  e.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, SelfCancelInsideCallbackIsNoop) {
  Engine e;
  int fired = 0;
  EventId id{};
  id = e.schedule_at(1.0, [&] {
    ++fired;
    e.cancel(id);  // cancelling the event that is currently firing
  });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, PendingEventId) {
  Engine e;
  EXPECT_FALSE(e.pending(EventId{}));
  bool inside = true;
  EventId fired{};
  fired = e.schedule_at(1.0, [&] { inside = e.pending(fired); });
  const EventId live = e.schedule_at(2.0, [] {});
  const EventId cancelled = e.schedule_at(3.0, [] {});
  EXPECT_TRUE(e.pending(fired));
  EXPECT_TRUE(e.pending(cancelled));
  e.cancel(cancelled);
  EXPECT_FALSE(e.pending(cancelled));
  // The next event recycles the cancelled slot under a new sequence number.
  const EventId reuse = e.schedule_at(4.0, [] {});
  ASSERT_EQ(reuse.slot, cancelled.slot);
  EXPECT_FALSE(e.pending(cancelled));
  EXPECT_TRUE(e.pending(reuse));
  e.run_until(1.0);
  EXPECT_FALSE(inside);  // not pending while its own callback runs
  EXPECT_FALSE(e.pending(fired));
  EXPECT_TRUE(e.pending(live));
  e.run();
  EXPECT_FALSE(e.pending(live));
  EXPECT_FALSE(e.pending(reuse));
  // A handle into a slot beyond the pool is not pending either.
  EXPECT_FALSE(e.pending(EventId{live.seq, 1u << 20}));
}

TEST(Engine, CancelWithinDueBatch) {
  // An event cancelled by an earlier event at the SAME timestamp must not
  // fire even though both were already popped into the due batch.
  Engine e;
  bool victim_fired = false;
  EventId victim{};
  e.schedule_at(1.0, [&] { e.cancel(victim); });
  victim = e.schedule_at(1.0, [&] { victim_fired = true; });
  e.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelHeavyPurgeKeepsOrder) {
  // Enough cancellations to trigger queue compaction; survivors must still
  // fire in (time, FIFO) order.
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(e.schedule_at(static_cast<double>(i % 31), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < 2000; ++i) {
    if (i % 4 != 0) e.cancel(ids[i]);
  }
  e.run();
  ASSERT_EQ(order.size(), 500u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const int a = order[i - 1], b = order[i];
    EXPECT_TRUE(a % 31 < b % 31 || (a % 31 == b % 31 && a < b))
        << "out of order: " << a << " then " << b;
  }
  EXPECT_EQ(e.pending(), 0u);
}

// Model check against a reference that keeps the live events in a
// std::set ordered by (t, seq): every firing must be the model's minimum
// at the engine's now(). Random schedule / cancel / step / run_until
// traffic over six timestamps on a 0.5 grid makes ties the rule.
// Callbacks schedule zero-delay and future children and cancel pending
// events, often same-time victims already in the due batch. Deadlines
// fall below now() (a partly drained batch sits beyond them), on batch
// times and between them. Cancel bursts push the stale count past the
// purge threshold (64) many times while the queue still holds live
// events. With `resequence`, some cancels become resequence() calls,
// which the model takes as a cancel and a reschedule at the same time.
void check_against_model(bool resequence) {
  struct Key {
    Time t;
    std::uint64_t seq;
    int id;
    bool operator<(const Key& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };
  constexpr Time kNoDeadline = std::numeric_limits<Time>::infinity();
  Engine e;
  Rng rng(0x5EED2026ull);
  std::set<Key> model;
  std::vector<Key> key_of;         // by id
  std::vector<EventId> handle;     // by id
  std::vector<int> live_ids;       // ids pending in the model
  std::vector<std::size_t> pos_of; // index into live_ids, by id
  std::uint64_t seq = 0;
  Time model_now = 0.0;
  Time deadline = kNoDeadline;  // inside run_until, nothing fires past it
  std::size_t fired = 0;
  std::size_t cancelled = 0;

  const auto forget = [&](int id) {
    model.erase(key_of[id]);
    const int last = live_ids.back();
    live_ids[pos_of[id]] = last;
    pos_of[last] = pos_of[id];
    live_ids.pop_back();
  };
  std::size_t resequenced = 0;
  const auto touch_random = [&](bool same_time) {
    if (live_ids.empty()) return;
    int victim = live_ids[rng.next_below(live_ids.size())];
    if (same_time) {
      std::vector<int> at_now;
      for (auto it = model.lower_bound(Key{e.now(), 0, 0});
           it != model.end() && it->t == e.now(); ++it) {
        at_now.push_back(it->id);
      }
      if (!at_now.empty()) victim = at_now[rng.next_below(at_now.size())];
    }
    if (resequence && rng.next_below(2) == 0) {
      model.erase(key_of[victim]);
      key_of[victim].seq = ++seq;
      model.insert(key_of[victim]);
      handle[victim] = e.resequence(handle[victim]);
      ++resequenced;
      return;
    }
    e.cancel(handle[victim]);
    forget(victim);
    ++cancelled;
  };
  std::function<void(int)> on_fire;
  const auto schedule = [&](Time t) {
    const int id = static_cast<int>(key_of.size());
    key_of.push_back(Key{t, ++seq, id});
    model.insert(key_of.back());
    pos_of.push_back(live_ids.size());
    live_ids.push_back(id);
    handle.push_back(e.schedule_at(t, [&on_fire, id] { on_fire(id); }));
  };
  const auto grid_time = [&] { return e.now() + 0.5 * rng.next_below(6); };
  on_fire = [&](int id) {
    ASSERT_FALSE(model.empty());
    ASSERT_EQ(model.begin()->id, id) << "after " << fired << " firings";
    ASSERT_EQ(e.now(), model.begin()->t);
    ASSERT_LE(e.now(), deadline);
    model_now = e.now();
    forget(id);
    ++fired;
    const auto action = rng.next_below(10);
    if (action < 3) {
      schedule(e.now());  // zero-delay child: joins the draining batch
    } else if (action < 6) {
      schedule(e.now() + 0.5 * (1 + rng.next_below(3)));
    } else if (action < 9) {
      touch_random(rng.next_below(2) == 0);
    }
  };

  for (int op = 0; op < 4000; ++op) {
    const auto kind = rng.next_below(100);
    if (kind < 40) {
      schedule(grid_time());
    } else if (kind < 55) {
      touch_random(false);
    } else if (kind < 75) {
      const bool any = !model.empty();
      const std::size_t before = fired;
      EXPECT_EQ(e.step(), any);
      EXPECT_EQ(fired, before + (any ? 1u : 0u));
    } else if (kind < 97) {
      deadline = e.now() + 0.25 * (static_cast<double>(rng.next_below(10)) - 2);
      e.run_until(deadline);
      EXPECT_TRUE(model.empty() || model.begin()->t > deadline);
      model_now = std::max(model_now, deadline);
      deadline = kNoDeadline;
    } else {
      for (int i = 0; i < 120; ++i) schedule(grid_time());
      for (int i = 0; i < 100; ++i) touch_random(false);
    }
    ASSERT_EQ(e.now(), model_now) << "after op " << op;
    ASSERT_EQ(e.pending(), model.size()) << "after op " << op;
  }
  e.run();
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(e.events_processed(), fired);
  EXPECT_GT(fired, 2000u);
  EXPECT_GT(cancelled, 64u * (resequence ? 10 : 20));
  if (resequence) {
    EXPECT_GT(resequenced, 1000u);
  }
}

TEST(Engine, MatchesReferenceOrderUnderRandomOps) {
  check_against_model(false);
}

TEST(Engine, ResequenceMatchesCancelAndReschedule) {
  check_against_model(true);
}


// --- SlotPool -------------------------------------------------------------

TEST(SlotPoolTest, AddressesStableAcrossGrowth) {
  SlotPool<int> pool;
  std::vector<int*> addr;
  for (int i = 0; i < 200; ++i) {  // past two 64-record chunks
    const std::uint32_t s = pool.acquire();
    ASSERT_EQ(s, static_cast<std::uint32_t>(i));  // fresh slots in order
    pool[s] = i;
    addr.push_back(&pool[s]);
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(&pool[static_cast<std::uint32_t>(i)], addr[i]);
    EXPECT_EQ(*addr[i], i);
  }
}

TEST(SlotPoolTest, ReleaseThenAcquireReturnsLastFreed) {
  SlotPool<int> pool;
  const std::uint32_t a = pool.acquire();
  pool.acquire();
  const std::uint32_t c = pool.acquire();
  pool[a] = 7;
  pool.release(a);
  pool.release(c);
  EXPECT_EQ(pool.acquire(), c);
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool[a], 7);  // a recycled record is handed back as left
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.live(), 4u);
}

TEST(SlotPoolTest, CapacityFollowsPeakLive) {
  SlotPool<int> pool;
  std::vector<std::uint32_t> held;
  for (int round = 0; round < 10; ++round) {
    const int n = round == 5 ? 80 : 50;
    for (int i = 0; i < n; ++i) held.push_back(pool.acquire());
    for (std::uint32_t s : held) pool.release(s);
    held.clear();
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.capacity(), round < 5 ? 50u : 80u);
  }
}

TEST(SlotPoolTest, TrimWaitsUntilNoSlotIsLive) {
  SlotPool<std::string> pool;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  pool[a] = "kept";
  pool.release(b);
  pool.trim();  // `a` is live: nothing happens
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool[a], "kept");
  pool.release(a);
  pool.trim();
  EXPECT_EQ(pool.capacity(), 0u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool[0], "");  // a fresh record, not the trimmed one
}

struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  Counted() { ++constructed; }
  ~Counted() { ++destroyed; }
};

TEST(SlotPoolTest, EveryRecordDestroyedExactlyOnce) {
  {
    SlotPool<Counted> pool;
    for (int i = 0; i < 130; ++i) pool.acquire();
    for (std::uint32_t s = 0; s < 130; ++s) pool.release(s);
    for (int i = 0; i < 130; ++i) pool.acquire();  // reuse: no new records
    EXPECT_EQ(Counted::constructed, 130);
    EXPECT_EQ(Counted::destroyed, 0);
    for (std::uint32_t s = 0; s < 130; ++s) pool.release(s);
    pool.trim();
    EXPECT_EQ(Counted::destroyed, 130);
    for (int i = 0; i < 70; ++i) pool.acquire();  // live at destruction
  }
  EXPECT_EQ(Counted::constructed, 200);
  EXPECT_EQ(Counted::destroyed, 200);
}

// --- InlineFn -----------------------------------------------------------

TEST(InlineFnTest, SmallCaptureStaysInline) {
  int x = 0;
  InlineFn<void()> f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 1);
}

TEST(InlineFnTest, LargeCaptureSpillsToHeap) {
  std::array<double, 16> big{};
  big[7] = 42.0;
  InlineFn<double()> f([big] { return big[7]; });
  EXPECT_FALSE(f.is_inline());
  EXPECT_DOUBLE_EQ(f(), 42.0);
}

TEST(InlineFnTest, MovePreservesNonTrivialCapture) {
  // unique_ptr capture exercises the non-trivial relocate path.
  auto p = std::make_unique<int>(7);
  InlineFn<int()> f([q = std::move(p)] { return *q; });
  InlineFn<int()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 7);
  InlineFn<int()> h;
  h = std::move(g);
  EXPECT_EQ(h(), 7);
}

TEST(InlineFnTest, TrivialCaptureMovesByCopy) {
  int hits = 0;
  InlineFn<void()> f([&hits] { ++hits; });
  InlineFn<void()> g(std::move(f));
  g();
  g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_EQ(hits, 1);
}

TEST(InlineFnTest, DestructorRunsCaptureDtor) {
  auto counter = std::make_shared<int>(0);
  {
    InlineFn<void()> f([counter] { ++*counter; });
    f();
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 1);
}

// --- SmallVec -----------------------------------------------------------

TEST(SmallVecTest, StaysInlineUpToN) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, BackAndPopBack) {
  SmallVec<int, 4> v{1, 2, 3};
  EXPECT_EQ(v.back(), 3);
  v.pop_back();
  EXPECT_EQ(v.back(), 2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVecTest, EraseKeepsOrder) {
  SmallVec<int, 2> v{1, 2, 3, 4, 5};
  v.erase(v.begin() + 1, v.begin() + 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 4);
  EXPECT_EQ(v[2], 5);
}

TEST(SmallVecTest, MoveStealsHeapBuffer) {
  SmallVec<int, 2> v{1, 2, 3, 4};
  EXPECT_FALSE(v.is_inline());
  SmallVec<int, 2> w(std::move(v));
  EXPECT_TRUE(v.empty());
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[3], 4);
}

// --- coroutines -------------------------------------------------------

CoTask waiting_program(Engine& e, Waitable& w, double& resumed_at) {
  co_await w;
  resumed_at = e.now();
}

TEST(CoTaskTest, WaitableResumesAtCompletionTime) {
  Engine e;
  Waitable w(e);
  double resumed_at = -1.0;
  bool done = false;
  CoTask t = waiting_program(e, w, resumed_at);
  t.start([&] { done = true; });
  e.schedule_at(2.5, [&] { w.complete(); });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(resumed_at, 2.5);
}

CoTask delay_program(Engine& e, double& t1, double& t2) {
  co_await Delay{e, 1.0};
  t1 = e.now();
  co_await Delay{e, 0.25};
  t2 = e.now();
}

TEST(CoTaskTest, DelayAccumulates) {
  Engine e;
  double t1 = -1.0, t2 = -1.0;
  delay_program(e, t1, t2).start();
  e.run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 1.25);
}

CoTask immediate_program() { co_return; }

TEST(CoTaskTest, SynchronousCompletionStillFiresHook) {
  bool done = false;
  immediate_program().start([&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(WaitableTest, CallbackAfterCompletionStillFires) {
  Engine e;
  Waitable w(e);
  w.complete();
  bool fired = false;
  w.on_complete([&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

CoTask logging_waiter(Waitable& w, std::vector<std::string>& log,
                      const char* name) {
  co_await w;
  log.push_back(name);
}

TEST(WaitableTest, SubscribersFireInSubscriptionOrder) {
  // The first waiter and callback live in inline slots, later ones in
  // vectors; completion must still wake waiters first, then callbacks,
  // each in subscription order, all as 0-delay events at completion time.
  Engine e;
  Waitable w(e);
  std::vector<std::string> log;
  auto note = [&](const char* what) {
    log.push_back(std::string(what) + "@" + std::to_string(e.now()));
  };
  w.on_complete([&] { note("cb0"); });
  logging_waiter(w, log, "waiter0").start();
  w.on_complete([&] { note("cb1"); });
  logging_waiter(w, log, "waiter1").start();
  w.on_complete([&] { note("cb2"); });
  e.schedule_at(1.5, [&] {
    w.complete();
    log.push_back("completed");  // nothing fires synchronously
    e.schedule_after(0.0, [&] { note("other"); });
    w.on_complete([&] { note("late"); });  // a 0-delay event from here
  });
  e.run();
  const std::vector<std::string> want = {
      "completed",         "waiter0",           "waiter1",
      "cb0@1.500000",      "cb1@1.500000",      "cb2@1.500000",
      "other@1.500000",    "late@1.500000"};
  EXPECT_EQ(log, want);
}

// --- table ------------------------------------------------------------

TEST(TableTest, AlignedTextAndCsv) {
  Table t({"size", "time"});
  t.begin_row().cell("4").cell(1.5);
  t.begin_row().cell("1024").cell(23.25);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("size"), std::string::npos);
  EXPECT_NE(text.find("23.25"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "size,time\n4,1.50\n1024,23.25\n");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvQuotesCommas) {
  Table t({"a"});
  t.begin_row().cell("x,y");
  EXPECT_EQ(t.to_csv(), "a\n\"x,y\"\n");
}

// --- json -----------------------------------------------------------------

TEST(JsonWriter, EscapesEveryAsciiByte) {
  // Every byte 0x00-0x7f: control bytes as \u00XX (a newline is \u000a,
  // never \n), '"' and '\\' backslash-escaped, everything else verbatim.
  std::string all;
  for (int c = 0; c < 0x80; ++c) all += static_cast<char>(c);
  const std::string want =
      "\""
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      " !\\\"#$%&'()*+,-./0123456789:;<=>?"
      "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_"
      "`abcdefghijklmnopqrstuvwxyz{|}~\x7f"
      "\"";
  EXPECT_EQ(json_string(all), want);
  EXPECT_TRUE(test::JsonValidator::valid(want));

  std::string appended = "[";
  append_json_string(appended, "a\"b");
  EXPECT_EQ(appended, "[\"a\\\"b\"");
  EXPECT_EQ(json_string(""), "\"\"");
}

TEST(JsonWriter, NumbersPrintNineSignificantDigits) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(2654.0), "2654");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(2.0 / 3.0), "0.666666667");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(json_number(-2.5e-7), "-2.5e-07");
  EXPECT_EQ(json_number(1e21), "1e+21");
}

}  // namespace
}  // namespace han::sim
